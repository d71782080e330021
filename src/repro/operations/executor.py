"""The operation engine: resolve, fetch, unpack, execute, collect.

This is the paper's "operations" machinery end to end:

1. the XUIS names an operation on a DATALINK column, with ``<if>``
   conditions selecting the rows it applies to;
2. the operation's executable is resolved — either a code archive that is
   *itself* stored as a DATALINK (``<database.result>``) or an external
   URL service (``<URL>``);
3. a batch script is generated: cd into a fresh session-named temporary
   directory, unpack the archive, invoke the interpreter on the entry
   point with the dataset filename as its parameter;
4. the code runs in the sandbox next to the data (on the file-server
   host — no dataset bytes cross the wide-area network);
5. output files are collected and shipped to the user — this is the data
   reduction the architecture exists for.

The engine also implements the paper's "Future" list: result caching,
execution statistics for future users, runtime progress monitoring, and
operation chaining / multi-dataset application.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterable

from repro.datalink.linker import DataLinker
from repro.errors import (
    AuthorizationError,
    OperationError,
    OperationNotApplicable,
    XuisError,
)
from repro.obs import get_observability
from repro.operations.batch import BatchScript, unpack_archive
from repro.operations.cache import OperationCache
from repro.operations.sandbox import Sandbox, SandboxPolicy
from repro.operations.stats import OperationStats
from repro.sqldb.database import Database
from repro.sqldb.types import DatalinkValue
from repro.xuis.model import (
    DatabaseResultLocation,
    OperationSpec,
    UrlLocation,
    XuisDocument,
    parse_colid,
)

__all__ = ["OperationEngine", "OperationResult", "output_mime"]

#: progress stages reported to monitoring hooks, in order
STAGES = ("resolve", "fetch", "unpack", "execute", "collect")

_OUTPUT_MIME = {
    ".pgm": "image/x-portable-graymap",
    ".png": "image/png",
    ".html": "text/html",
    ".json": "application/json",
    ".txt": "text/plain",
}


def output_mime(filename: str) -> str:
    """The MIME type an output file is shipped and archived with.

    >>> output_mime("slice.pgm"), output_mime("subsampled.turb")
    ('image/x-portable-graymap', 'application/octet-stream')
    """
    return _OUTPUT_MIME.get(os.path.splitext(filename)[1], "application/octet-stream")


class OperationResult:
    """Everything one invocation produced."""

    def __init__(
        self,
        operation: OperationSpec,
        outputs: dict[str, bytes],
        stdout: str = "",
        batch_script: BatchScript | None = None,
        elapsed: float = 0.0,
        dataset_bytes: int = 0,
        cached: bool = False,
    ) -> None:
        self.operation = operation
        self.outputs = outputs
        self.stdout = stdout
        self.batch_script = batch_script
        self.elapsed = elapsed
        #: size of the dataset the operation consumed (stayed server-side)
        self.dataset_bytes = dataset_bytes
        self.cached = cached

    @property
    def output_bytes(self) -> int:
        """Bytes actually shipped back to the user."""
        return sum(len(d) for d in self.outputs.values())

    @property
    def reduction_factor(self) -> float:
        """Dataset size over shipped size — the bandwidth saving."""
        if self.output_bytes == 0:
            return float("inf")
        return self.dataset_bytes / self.output_bytes

    def primary_output(self) -> tuple[str, bytes]:
        """The single output, for chaining; ambiguous outputs are an error."""
        if len(self.outputs) != 1:
            raise OperationError(
                f"operation {self.operation.name} produced "
                f"{len(self.outputs)} outputs; chaining needs exactly one"
            )
        return next(iter(self.outputs.items()))


class OperationEngine:
    """Executes XUIS-declared operations against archived datasets."""

    def __init__(
        self,
        db: Database,
        linker: DataLinker,
        document: XuisDocument,
        sandbox_root: str,
        cache: OperationCache | None = None,
        stats: OperationStats | None = None,
        keep_workdirs: bool = False,
    ) -> None:
        self.db = db
        self.linker = linker
        self.document = document
        self.sandbox = Sandbox(sandbox_root)
        self.cache = cache if cache is not None else OperationCache()
        self.stats = stats if stats is not None else OperationStats()
        # Cached results become stale the moment their dataset is unlinked
        # (the file may then be deleted or replaced).
        linker.unlink_listeners.append(self.cache.invalidate_file)
        self.keep_workdirs = keep_workdirs
        self._url_services: dict[str, Callable] = {}
        #: progress monitoring callbacks: fn(operation_name, stage, detail)
        self.progress_listeners: list[Callable[[str, str, str], None]] = []
        #: recent progress events for runtime monitoring (future-work):
        #: (sequence, session_tag, operation, stage, detail)
        from collections import deque

        self.recent_events: "deque[tuple[int, str, str, str, str]]" = deque(
            maxlen=256
        )
        import threading

        self._event_seq = 0
        self._event_lock = threading.Lock()
        # the session tag travels with the *calling thread*: concurrent
        # requests running operations must not stamp each other's events
        self._session_local = threading.local()

    @property
    def _current_session(self) -> str:
        return getattr(self._session_local, "tag", "")

    @_current_session.setter
    def _current_session(self, tag: str) -> None:
        self._session_local.tag = tag

    # -- registry -----------------------------------------------------------------

    def register_url_service(self, url: str, handler: Callable) -> None:
        """Register the handler behind a ``<URL>`` operation (the paper's
        NCSA Scientific Data Browser servlet).  ``handler(dataset_bytes,
        params) -> dict[name, bytes]``."""
        self._url_services[url] = handler

    def add_progress_listener(self, listener: Callable[[str, str, str], None]) -> None:
        self.progress_listeners.append(listener)

    def _progress(self, operation: str, stage: str, detail: str = "") -> None:
        with self._event_lock:
            self._event_seq += 1
            self.recent_events.append(
                (self._event_seq, self._current_session, operation, stage, detail)
            )
        for listener in self.progress_listeners:
            listener(operation, stage, detail)

    def events_for_session(self, session_tag: str) -> list[tuple]:
        """Recent progress events recorded for one session (monitoring)."""
        return [e for e in self.recent_events if e[1] == session_tag]

    # -- lookup -------------------------------------------------------------------------

    def operation(self, colid: str, name: str) -> OperationSpec:
        """The operation ``name`` on ``colid`` in the deployment's XUIS."""
        return self.document.column(colid).operation(name)

    # -- invocation -----------------------------------------------------------------------

    def invoke(
        self,
        name: str,
        colid: str,
        row: dict[str, Any],
        params: dict[str, Any] | None = None,
        user=None,
        session_tag: str = "session",
        use_cache: bool = True,
    ) -> OperationResult:
        """Run one operation against the dataset referenced by ``row``."""
        operation = self.operation(colid, name)
        if not operation.applies_to(row):
            raise OperationNotApplicable(
                f"operation {name} does not apply to this row"
            )
        if user is not None and not user.can_run_operation(operation):
            raise AuthorizationError(
                f"guest users may not run operation {name}"
            )
        if operation.is_chain:
            # XUIS-declared chain (extended DTD): run the named sibling
            # operations in sequence, each consuming the previous output.
            for step in operation.chain:
                step_op = self.operation(colid, step)
                if user is not None and not user.can_run_operation(step_op):
                    raise AuthorizationError(
                        f"guest users may not run chain step {step}"
                    )
            results = self.invoke_chain(
                operation.chain, colid, row,
                user=user, session_tag=session_tag,
            )
            final = results[-1]
            return OperationResult(
                operation,
                dict(final.outputs),
                final.stdout,
                batch_script=final.batch_script,
                elapsed=sum(r.elapsed for r in results),
                dataset_bytes=results[0].dataset_bytes,
            )

        params = self._validate_params(operation, params or {})
        self._current_session = session_tag
        self._progress(name, "resolve")

        dataset = self._dataset(colid, row)
        obs = get_observability()
        cache_key = self.cache.key(name, dataset.url, params)
        if use_cache:
            hit = self.cache.get(cache_key)
            if hit is not None:
                self.stats.record_cache_hit(name)
                return OperationResult(
                    operation, dict(hit.outputs), hit.stdout,
                    dataset_bytes=hit.dataset_bytes, cached=True,
                )

        with obs.tracer.span(
            "operation.invoke", operation=name, dataset=dataset.url
        ) as span:
            if isinstance(operation.location, UrlLocation):
                result = self._invoke_url_service(operation, dataset, params)
            else:
                code = self._resolve_code_link(operation)
                result = self._run_archive(
                    operation, dataset, params, session_tag,
                    self.linker.server(code.host).filesystem.read(code.server_path),
                    code.filename, operation.filename,
                    SandboxPolicy.for_operations(),
                )
            span.set(
                dataset_bytes=result.dataset_bytes,
                output_bytes=result.output_bytes,
            )
        if obs.enabled:
            obs.metrics.counter("operation.invocations", operation=name).inc()
            obs.metrics.histogram("operation.seconds").observe(result.elapsed)
            obs.metrics.histogram("operation.output_bytes").observe(
                result.output_bytes
            )
        if use_cache:
            self.cache.put(cache_key, result)
        return result

    def run_upload(
        self,
        colid: str,
        row: dict[str, Any],
        archive: bytes,
        class_name: str,
        user=None,
        params: dict[str, Any] | None = None,
        session_tag: str = "upload",
    ) -> OperationResult:
        """Run an uploaded archive's ``class_name`` against the row's
        dataset, as an operation runs but under the strict upload policy
        (the paper's "special secure application class").  The column
        must declare ``<upload>``, its ``<if>`` conditions must hold for
        the row, and guests are refused unless ``guest.access="true"``.
        ``class_name`` is the user's requested entry point (the paper's
        reflection target), e.g. ``MyAnalysis`` -> ``MyAnalysis.py``."""
        upload = self.document.column(colid).upload
        if upload is None:
            raise OperationError(f"column {colid} does not accept code uploads")
        if not upload.applies_to(row):
            raise OperationNotApplicable("code upload is not permitted for this row")
        if user is not None and not user.can_upload(upload):
            raise AuthorizationError("guest users cannot upload post-processing codes")
        spec = OperationSpec(
            f"upload:{class_name}", type=upload.type, format=upload.format
        )
        self._current_session = session_tag
        self._progress(spec.name, "resolve")
        return self._run_archive(
            spec, self._dataset(colid, row), params or {}, session_tag,
            archive, "upload.jar", class_name, SandboxPolicy.for_uploads(),
        )

    @staticmethod
    def _dataset(colid: str, row: dict[str, Any]) -> DatalinkValue:
        dataset = row.get(colid)
        if not isinstance(dataset, DatalinkValue):
            raise OperationError(
                f"row has no DATALINK dataset in column {colid}"
            )
        return dataset

    def _fetch(self, name: str, dataset: DatalinkValue) -> bytes:
        """The dataset, read on its own file server: the code runs next to
        the data, which never crosses the wide area."""
        self._progress(name, "fetch", dataset.url)
        return self.linker.server(dataset.host).filesystem.read(dataset.server_path)

    def _invoke_url_service(self, operation, dataset, params) -> OperationResult:
        url = operation.location.url
        handler = self._url_services.get(url)
        if handler is None:
            raise OperationError(
                f"no service registered for URL operation at {url}"
            )
        started = time.perf_counter()
        data = self._fetch(operation.name, dataset)
        self._progress(operation.name, "execute", url)
        outputs = handler(data, params)
        if not isinstance(outputs, dict):
            raise OperationError("URL service must return a dict of outputs")
        self._progress(operation.name, "collect")
        result = OperationResult(
            operation, outputs,
            elapsed=time.perf_counter() - started,
            dataset_bytes=len(data),
        )
        self.stats.record(
            operation.name, result.elapsed, result.dataset_bytes, result.output_bytes
        )
        return result

    def _run_archive(self, spec: OperationSpec, dataset: DatalinkValue,
                     params: dict[str, Any], session_tag: str, archive: bytes,
                     archive_name: str, entry: str,
                     policy: SandboxPolicy) -> OperationResult:
        """The one sandbox pipeline, for operations and uploads alike: fetch
        the dataset into a fresh session-named directory, unpack
        ``archive`` beside it, run the entry point ``entry`` names under
        ``policy``, collect the outputs, record the run and clean up."""
        started = time.perf_counter()
        data = self._fetch(spec.name, dataset)
        workdir = self.sandbox.make_workdir(session_tag)
        try:
            with open(f"{workdir}/{dataset.filename}", "wb") as fh:
                fh.write(data)
            self._progress(spec.name, "unpack", archive_name)
            members = unpack_archive(archive, workdir)
            entry_name, source = self._entry_point(spec, entry, workdir, members)
            self._progress(spec.name, "execute", entry_name)
            with get_observability().tracer.span(
                "operation.sandbox", operation=spec.name, entry=entry_name
            ):
                sandbox_result = self.sandbox.run_source(
                    source, workdir, dataset.filename, params, policy=policy
                )
            self._progress(spec.name, "collect")
            result = OperationResult(
                spec,
                sandbox_result.outputs,
                sandbox_result.stdout,
                batch_script=BatchScript(
                    workdir, archive_name, entry_name, dataset.filename
                ),
                elapsed=time.perf_counter() - started,
                dataset_bytes=len(data),
            )
        finally:
            if not self.keep_workdirs:
                self.sandbox.cleanup(workdir)
        self.stats.record(
            spec.name, result.elapsed, result.dataset_bytes, result.output_bytes
        )
        return result

    def _resolve_code_link(self, operation: OperationSpec) -> DatalinkValue:
        """Run the <database.result> query to find the code's DATALINK."""
        location = operation.location
        if not isinstance(location, DatabaseResultLocation):
            raise OperationError(
                f"operation {operation.name} has no usable location"
            )
        table, column = parse_colid(location.colid)
        clauses = []
        params: list[Any] = []
        for condition in location.conditions:
            cond_table, cond_column = parse_colid(condition.colid)
            if cond_table != table:
                raise OperationError(
                    f"location condition {condition.colid} is not on {table}"
                )
            clauses.append(f"{cond_column} {condition.sql_op} ?")
            params.append(condition.value)
        sql = f"SELECT {column} FROM {table}"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        result = self.db.execute(sql, tuple(params))
        if len(result.rows) != 1:
            raise OperationError(
                f"operation code lookup returned {len(result.rows)} rows "
                f"(expected exactly 1): {sql}"
            )
        value = result.scalar()
        if not isinstance(value, DatalinkValue):
            raise OperationError(f"{location.colid} did not yield a DATALINK")
        return value

    @staticmethod
    def _entry_point(spec: OperationSpec, name: str, workdir: str,
                     members: list[str]) -> tuple[str, str]:
        """The executable member and its source.  The XUIS names a Java
        class file (``GetImage.class``) and an upload a class
        (``MyAnalysis``); the Python stand-in is ``<stem>.py``, then the
        name itself, with ``main.py`` as fallback."""
        stem = name.rsplit(".", 1)[0]
        candidates = [f"{stem}.py", name, "main.py"] if stem else ["main.py"]
        for candidate in candidates:
            if candidate in members:
                with open(f"{workdir}/{candidate}", encoding="utf-8") as fh:
                    return candidate, fh.read()
        raise OperationError(
            f"archive for {spec.name} has no entry point "
            f"(tried {candidates}; members: {sorted(members)})"
        )

    def _validate_params(self, operation: OperationSpec,
                         provided: dict[str, Any]) -> dict[str, Any]:
        """Check user inputs against the operation's parameter controls and
        fill defaults; reject unknown or out-of-range values."""
        known = {param.name: param for param in operation.params}
        unknown = set(provided) - set(known)
        if unknown:
            raise OperationError(
                f"unknown parameter(s) for {operation.name}: {sorted(unknown)}"
            )
        resolved: dict[str, Any] = {}
        for param_name, param in known.items():
            if param_name in provided:
                value = str(provided[param_name])
                if not param.control.accepts(value):
                    raise OperationError(
                        f"value {value!r} not allowed for parameter {param_name}"
                    )
            else:
                value = param.control.default_value()
                if value is None:
                    raise OperationError(
                        f"parameter {param_name} of {operation.name} is required"
                    )
            resolved[param_name] = value
        return resolved

    # -- future-work features: chaining and multi-dataset ------------------------------

    def invoke_chain(
        self,
        names: Iterable[str],
        colid: str,
        row: dict[str, Any],
        params_list: Iterable[dict[str, Any] | None] = (),
        user=None,
        session_tag: str = "chain",
    ) -> list[OperationResult]:
        """Operation chaining: each operation consumes the previous one's
        (single) output as its dataset."""
        names = list(names)
        params_list = list(params_list) or [None] * len(names)
        if len(params_list) != len(names):
            raise OperationError("params_list length must match names")
        results: list[OperationResult] = []
        current_row = dict(row)
        column = self.document.column(colid)
        dataset = current_row.get(colid)
        for i, (name, params) in enumerate(zip(names, params_list)):
            result = self.invoke(
                name, colid, current_row, params, user=user,
                session_tag=f"{session_tag}_{i}",
            )
            results.append(result)
            if i + 1 < len(names):
                # Stage the output next to the original dataset so the next
                # operation can link to it.
                out_name, out_data = result.primary_output()
                server = self.linker.server(dataset.host)
                staged_path = f"{dataset.directory.rstrip('/')}/chain_{i}_{out_name}"
                server.filesystem.write(staged_path, out_data)
                staged = DatalinkValue(
                    f"{dataset.scheme}://{dataset.host}{staged_path}"
                )
                current_row = dict(current_row)
                current_row[colid] = staged
                current_row[column.name] = staged
        return results

    def invoke_multi(
        self,
        name: str,
        colid: str,
        rows: Iterable[dict[str, Any]],
        params: dict[str, Any] | None = None,
        user=None,
        session_tag: str = "multi",
    ) -> list[OperationResult]:
        """Apply one operation to many datasets (future-work feature)."""
        return [
            self.invoke(
                name, colid, row, params, user=user,
                session_tag=f"{session_tag}_{i}",
            )
            for i, row in enumerate(rows)
        ]
