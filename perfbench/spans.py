"""Out-of-process-style tracing for the portal benchmark.

The program under test carries no spans of its own yet, so the traced run
times each layer from outside: :func:`instrument` replaces the public
functions listed in :data:`TARGETS` with wrappers that record a span per
call, and :meth:`Tracer.uninstall` puts every original back.

A span is ``[span_id, parent_id, request_id, name, start, end]``.  Parents
come from a per-thread stack, so a span's parent is the innermost span
open on the same thread; every span under a client request carries that
request's id, and spans opened on background threads (the replication
pump) carry ``None``.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

__all__ = [
    "TARGETS",
    "Tracer",
    "covered_length",
    "instrument",
    "layer_totals",
    "self_times",
]

_MISSING = object()

#: (module, qualified attribute, span name).  A dotted attribute names a
#: method, patched on its class; a plain one names a module function,
#: patched in every ``repro`` module that imported it.  The span names are
#: the benchmark's layers.
TARGETS = (
    ("repro.web.wsgi", "WsgiAdapter.__call__", "web.dispatch"),
    ("repro.web.http", "ServletContainer.dispatch", "web.dispatch"),
    ("repro.sqldb.connection", "ConnectionPool.checkout", "web.pool.wait"),
    ("repro.web.qbe", "build_query_from_params", "web.qbe"),
    ("repro.web.qbe", "QbeQuery.to_sql", "web.qbe"),
    ("repro.web.qbe", "QbeQuery.count_sql", "web.qbe"),
    ("repro.web.render", "render_result_table", "web.render"),
    ("repro.xuis.model", "OperationSpec.applies_to", "xuis.condition"),
    ("repro.xuis.model", "UploadSpec.applies_to", "xuis.condition"),
    ("repro.sqldb.database", "Database.execute", "sqldb.execute"),
    ("repro.sqldb.connection", "Connection.execute", "sqldb.execute"),
    ("repro.sqldb.parser", "parse_sql", "sqldb.parse"),
    ("repro.sqldb.connection", "WriterLock.acquire", "sqldb.writer_lock.wait"),
    ("repro.sqldb.wal", "WriteAheadLog.append_transaction", "sqldb.wal.append"),
    ("repro.sqldb.database", "Database.checkpoint", "sqldb.checkpoint"),
    ("repro.datalink.linker", "DataLinker.decorate", "datalink.decorate"),
    ("repro.datalink.tokens", "TokenManager.validate", "datalink.token.validate"),
    ("repro.datalink.linker", "DataLinker.download", "datalink.download"),
    ("repro.datalink.linker", "DataLinker.on_insert_link", "datalink.link"),
    # the commit-time half of linking: pending link ops applied by the
    # transaction's on_commit hook
    ("repro.datalink.linker", "DataLinker._apply", "datalink.link"),
    ("repro.fileserver.server", "FileServer.serve", "fileserver.serve"),
    ("repro.fileserver.server", "FileServer.put", "fileserver.put"),
    ("repro.replication.replicaset", "ReplicaSet.serve", "replication.serve"),
    ("repro.replication.manager", "ReplicationManager.pump", "replication.pump"),
    ("repro.operations.executor", "OperationEngine.invoke", "operations.invoke"),
    ("repro.operations.sandbox", "Sandbox.run_source", "operations.sandbox"),
)


class Tracer:
    """Collects spans and counters; owns the patches it installs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._watched: dict[int, tuple[object, int]] = {}

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request_id: int | None = None) -> list:
        """Open a span on the calling thread; a root span takes
        ``request_id``, a nested one inherits its parent's."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [
            next(self._ids),
            parent[0] if parent else None,
            parent[2] if parent else request_id,
            name,
            perf_counter(),
            None,
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        """Close ``span``, the innermost open span on this thread."""
        span[5] = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[counter] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def watch(self, conn) -> None:
        """Count ``conn.rows_scanned`` from now on (first sighting wins)."""
        with self._lock:
            if id(conn) not in self._watched:
                self._watched[id(conn)] = (conn, conn.rows_scanned)

    @property
    def rows_scanned(self) -> int:
        return sum(conn.rows_scanned - base for conn, base in self._watched.values())

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a ``name`` span per call; ``after(args,
        result)`` runs once the span has closed, for counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering what to restore (including
        "nothing": a name the owner did not define is deleted again)."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def patch_function(self, fn, replacement) -> int:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it
        (``from x import f`` copies the binding, so each importer needs
        its own patch).  Returns the number of bindings replaced."""
        count = 0
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, replacement)
                    count += 1
        return count

    def uninstall(self) -> None:
        """Restore every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- output ---------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as CSV (times in seconds, perf_counter base)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,request_id,name,start,end\n")
            for sid, parent, req, name, start, end in self.spans:
                fh.write(
                    f"{sid},{'' if parent is None else parent},"
                    f"{'' if req is None else req},{name},"
                    f"{start:.9f},{end:.9f}\n"
                )


def instrument(tracer: Tracer) -> None:
    """Wrap every :data:`TARGETS` entry, plus the counting wrappers the
    per-layer metrics need: ``os.fsync`` calls, WAL bytes per append,
    bytes served, rows rendered, rows returned, reduction factors, and
    the sandboxed ``exec`` of the ``turbulence.codes`` sources."""
    afters = {
        "ConnectionPool.checkout": lambda args, conn: tracer.watch(conn),
        "FileServer.serve": lambda args, data: tracer.add("serve.bytes", len(data)),
        "render_result_table": lambda args, html: tracer.add(
            "render.rows", len(args[3].rows)
        ),
        "Database.execute": lambda args, result: tracer.add(
            "execute.rows", len(result.rows)
        ),
        "Connection.execute": lambda args, result: tracer.add(
            "execute.rows", len(result.rows)
        ),
        "OperationEngine.invoke": lambda args, result: tracer.sample(
            "reduction_factor", result.reduction_factor
        ),
    }
    for module_name, qualname, span_name in TARGETS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = vars(owner)[attr]
            if qualname == "WriteAheadLog.append_transaction":
                tracer.patch(owner, attr, _wal_append(tracer, span_name, original))
            else:
                tracer.patch(owner, attr, tracer.wrap(
                    span_name, original, afters.get(qualname)
                ))
        else:
            original = getattr(module, qualname)
            tracer.patch_function(original, tracer.wrap(
                span_name, original, afters.get(qualname)
            ))

    real_fsync = os.fsync

    @functools.wraps(real_fsync)
    def counting_fsync(fd):
        tracer.add("fsync")
        return real_fsync(fd)

    tracer.patch(os, "fsync", counting_fsync)
    # Sandbox.run_source runs an operation's source with the builtin exec;
    # a module-level ``exec`` in the sandbox module shadows the builtin for
    # that call only (the operation code sees its own restricted builtins).
    sandbox = importlib.import_module("repro.operations.sandbox")
    tracer.patch(sandbox, "exec", tracer.wrap("turbulence.kernel", builtins.exec))


def _wal_append(tracer: Tracer, span_name: str, original):
    def append_transaction(self, txn_id, records):
        before = _size(self.path)
        span = tracer.begin(span_name)
        try:
            return original(self, txn_id, records)
        finally:
            tracer.end(span)
            tracer.add("wal.bytes", max(0, _size(self.path) - before))

    return append_transaction


def _size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


# -- analysis --------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """span_id -> duration minus the part of it its children cover
    (children may nest or overlap; overlap is counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _req, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered_length(children.get(sid, ()), start, end)
        for sid, _parent, _req, _name, start, end in spans
    }


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and ``incl`` (seconds) over *outermost*
    spans of that name — a span whose parent has the same name (the WSGI
    adapter calling the container) is part of its parent's call — and
    ``self`` (seconds) over all of them."""
    names = {span[0]: span[3] for span in spans}
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "incl": 0.0, "self": 0.0}
    )
    for sid, parent, _req, name, start, end in spans:
        entry = totals[name]
        entry["self"] += own[sid]
        if parent is None or names.get(parent) != name:
            entry["calls"] += 1
            entry["incl"] += end - start
    return dict(totals)
