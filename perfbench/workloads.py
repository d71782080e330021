"""The three portal workloads.

Each workload builds its deployment in :meth:`setup` (timed as
``setup_s``), hands the runner one closed-loop session per client thread,
and checks its own outputs: every response must be a 200, and every body
must match what the seeded generator predicts.  A session's :meth:`step`
is one operation; it returns a list of ``(class, latency_seconds,
failure_or_None)`` samples, usually one.

The program only ever sees generated inputs: keys, pages and operation
parameters are drawn from per-session ``random.Random`` streams and
:class:`~stats.Zipf` samplers seeded from ``--seed``.
"""

from __future__ import annotations

import hashlib
import html
import io
import itertools
import os
import random
import re
from time import perf_counter
from urllib.parse import urlencode

from deploy import (
    TITLE_WORDS, Catalog, Simulation, deploy, register_simulation, result_path,
)
from stats import Zipf

from repro import EasiaApp
from repro.datalink.reconcile import reconcile
from repro.sqldb import Database
from repro.sqldb.connection import ConnectionPool
from repro.sqldb.types import DatalinkValue
from repro.turbulence.generator import make_timestep_file
from repro.web.wsgi import WsgiAdapter

__all__ = ["WORKLOADS", "Recorder"]

#: pooled connections, as ``repro serve`` installs them by default
POOL_SIZE = 4
PAGE_SIZE = 50
_ROWS = re.compile(r"<p>(\d+) row\(s\)</p>")
_TOTAL = re.compile(r"\((\d+) rows\)")
_DATALINK_HREF = re.compile(r'class="datalink" href="([^"]+)"')


class Recorder:
    """Times client calls; while a tracer is installed, each call is also
    the root span of its request."""

    def __init__(self) -> None:
        self.tracer = None
        self._request_ids = itertools.count(1)

    def timed(self, cls: str, fn, *args):
        tracer = self.tracer
        if tracer is None:
            started = perf_counter()
            out = fn(*args)
            return out, perf_counter() - started
        span = tracer.begin("request." + cls, next(self._request_ids))
        started = perf_counter()
        try:
            out = fn(*args)
        finally:
            tracer.end(span)
        return out, perf_counter() - started


class Browser:
    """One logged-in browser session driving the WSGI adapter in process."""

    def __init__(self, adapter: WsgiAdapter, username: str, password: str) -> None:
        self.adapter = adapter
        status, headers, body = self._call(
            "/login", "POST",
            body=urlencode({"username": username, "password": password}).encode(),
        )
        cookies = [v for k, v in headers if k == "Set-Cookie"]
        if status != 200 or not cookies:
            raise RuntimeError(f"login as {username} failed: {status}")
        self.cookie = cookies[0].split(";", 1)[0]

    def _call(self, path: str, method: str = "GET", params=None,
              body: bytes = b"", cookie: str | None = None):
        environ = {
            "PATH_INFO": path,
            "REQUEST_METHOD": method,
            "QUERY_STRING": urlencode(params or {}),
            "CONTENT_LENGTH": str(len(body)),
            "CONTENT_TYPE": "application/x-www-form-urlencoded",
            "wsgi.input": io.BytesIO(body),
        }
        if cookie:
            environ["HTTP_COOKIE"] = cookie
        reply = {}

        def start_response(status, headers):
            reply["status"], reply["headers"] = status, headers

        payload = b"".join(self.adapter(environ, start_response))
        return int(reply["status"].split()[0]), reply["headers"], payload

    def get(self, path: str, params: dict) -> tuple[int, bytes]:
        status, _headers, body = self._call(path, params=params, cookie=self.cookie)
        return status, body


def _page_check(status: int, body: bytes, rows: int, total: int | None = None,
                page_size: int = PAGE_SIZE):
    """None when the page is a 200 showing ``rows`` rows (and, for a
    multi-page result, announcing ``total``); else what went wrong."""
    if status != 200:
        return f"status {status}: {body[:120]!r}"
    text = body.decode("utf-8", "replace")
    found = _ROWS.search(text)
    if found is None or int(found.group(1)) != rows:
        return f"expected {rows} rows, page shows {found and found.group(1)}"
    if total is not None and total > page_size:
        shown = _TOTAL.search(text)
        if shown is None or int(shown.group(1)) != total:
            return f"expected total {total}, footer shows {shown and shown.group(1)}"
    return None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Base:
    name = ""
    #: (main class, auxiliary class): the end-to-end main_p50/main_p99 and
    #: aux_p50 metrics (the aux p99 is printed, not gated)
    classes: tuple[str, str] = ("", "")
    #: classes whose requests are HTML pages (per-page layer ratios)
    page_classes: tuple[str, ...] = ()
    #: connections used outside the pool, watched for rows scanned
    connections: tuple = ()

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.archive = None

    def _serve(self, archive, sandbox: str) -> None:
        """Wire the portal the way ``repro serve`` does."""
        self.archive = archive
        self.engine = archive.make_engine(sandbox)
        self.app = EasiaApp(
            archive.db, archive.linker, archive.document, archive.users,
            self.engine,
        )
        self.pool = ConnectionPool(archive.db, size=POOL_SIZE)
        self.app.container.use_connection_pool(self.pool)
        self.adapter = WsgiAdapter(self.app)
        if archive.replication is not None:
            archive.replication.start()

    def teardown(self) -> None:
        if self.archive is not None and self.archive.replication is not None:
            self.archive.replication.stop()

    def counters(self) -> dict[str, float]:
        """Program-kept counters the per-layer metrics take deltas of."""
        archive = self.archive
        stats = archive.db.statement_cache_stats
        physical = []
        failovers = 0
        for server in archive.servers:
            replicas = getattr(server, "replicas", None)
            if replicas is None:
                physical.append(server)
            else:
                physical.extend(r.server for r in replicas)
                failovers += server.failovers
        return {
            "stmt_hits": stats["hits"],
            "stmt_misses": stats["misses"],
            "op_hits": self.engine.cache.hits,
            "op_misses": self.engine.cache.misses,
            "denied": sum(s.denied for s in physical),
            "failovers": failovers,
        }

    def max_lag(self) -> int:
        replication = self.archive.replication
        return replication.status()["max_lag"] if replication is not None else 0

    def final_checks(self) -> list[str]:
        return []


# -- portal_browse --------------------------------------------------------------


class PortalBrowse(_Base):
    """Read-only QBE search and hyperlink browsing over a large catalog."""

    name = "portal_browse"
    #: "list": QBE searches answered by scanning (TITLE LIKE, the
    #: GRID_SIZE/REYNOLDS range, RESULT_FILE pages by TIMESTEP, of 50 or
    #: 300 rows); "lookup": key lookups and navigation (PK search,
    #: /browse/pk, /browse/fk, /query, /).  Lookups take about a
    #: millisecond and list pages tens of milliseconds; split this way,
    #: neither class's median sits on the gap between the two.
    classes = ("list", "lookup")
    page_classes = classes
    N_SIMULATIONS = 300
    TIMESTEPS = 4
    #: one cycle of 100 clicks: 30 SIMULATION searches (15 PK, 8 LIKE, 7
    #: range), 20 RESULT_FILE pages, 30 /browse/pk, 10 /browse/fk, 5
    #: /query, 5 /.  One RESULT_FILE page in 20 shows all 300 rows of its
    #: timestep instead of 50.  These big pages are 1 in 35 list pages and
    #: take longer than any other, so they hold the list p99: it moves
    #: with the cost of a long result page, not with how many of ~1,000
    #: pages happened to queue behind the other session's.
    CYCLE = (["pk"] * 15 + ["like"] * 8 + ["range"] * 7 + ["rf"] * 19
             + ["rf_big"] + ["browse_pk"] * 30 + ["browse_fk"] * 10
             + ["query", "home"] * 5)
    LIST_KINDS = ("like", "range", "rf", "rf_big")
    BIG_PAGE = 300

    def setup(self) -> None:
        self.catalog = Catalog(self.N_SIMULATIONS, self.TIMESTEPS, self.seed)
        archive, _contents = deploy(self.catalog, grid=4, seed=self.seed)
        self._serve(archive, os.path.join(self.work_dir, "sandbox"))

    def sessions(self) -> list:
        return [
            _BrowseSession(self, Browser(self.adapter, "guest", "guest"), 1),
            _BrowseSession(self, Browser(self.adapter, "turbulence", "consortium"), 2),
        ]


class _BrowseSession:
    def __init__(self, workload: PortalBrowse, browser: Browser, index: int) -> None:
        self.w = workload
        self.browser = browser
        seed = workload.seed * 1009 + index
        self.rng = random.Random(seed)
        sims = list(workload.catalog.simulations)
        self.rng.shuffle(sims)
        self.sims = sims
        self.sim_zipf = Zipf(len(sims), 1.0, seed + 1)
        self.words = list(TITLE_WORDS.values())
        self.word_zipf = Zipf(len(self.words), 1.0, seed + 2)
        rf_pages = -(-workload.N_SIMULATIONS // PAGE_SIZE)
        self.page_zipf = Zipf(rf_pages, 1.0, seed + 3)
        self.queue: list[str] = []

    def step(self, rec: Recorder):
        if not self.queue:
            self.queue = list(self.w.CYCLE)
            self.rng.shuffle(self.queue)
        kind = self.queue.pop()
        path, params, check = getattr(self, "_" + kind)()
        cls = "list" if kind in self.w.LIST_KINDS else "lookup"
        (status, body), latency = rec.timed(cls, self.browser.get, path, params)
        return [(cls, latency, check(status, body))]

    def _sim(self) -> Simulation:
        return self.sims[self.sim_zipf.draw()]

    def _pk(self):
        sim = self._sim()
        params = {"table": "SIMULATION", "val_SIMULATION_KEY": sim.key}
        return "/search", params, lambda s, b: _page_check(s, b, 1)

    def _like(self):
        word = self.words[self.word_zipf.draw()]
        total = self.w.catalog.count_title(word)
        params = {"table": "SIMULATION", "op_TITLE": "LIKE",
                  "val_TITLE": f"%{word}%"}
        return "/search", params, lambda s, b: _page_check(
            s, b, min(PAGE_SIZE, total), total
        )

    def _range(self):
        min_grid = self.rng.choice((64, 128, 256))
        max_re = self.rng.choice((1500.0, 3000.0, 4500.0))
        total = self.w.catalog.count_range(min_grid, max_re)
        params = {"table": "SIMULATION",
                  "op_GRID_SIZE": ">=", "val_GRID_SIZE": str(min_grid),
                  "op_REYNOLDS": "<", "val_REYNOLDS": str(max_re)}
        return "/search", params, lambda s, b: _page_check(
            s, b, min(PAGE_SIZE, total), total
        )

    def _rf(self):
        timestep = self.rng.randrange(self.w.TIMESTEPS)
        page = 1 + self.page_zipf.draw()
        total = self.w.N_SIMULATIONS
        rows = max(0, min(PAGE_SIZE, total - (page - 1) * PAGE_SIZE))
        params = {"table": "RESULT_FILE", "val_TIMESTEP": str(timestep),
                  "page": str(page)}
        return "/search", params, lambda s, b: _page_check(s, b, rows, total)

    def _rf_big(self):
        timestep = self.rng.randrange(self.w.TIMESTEPS)
        size = self.w.BIG_PAGE
        total = self.w.N_SIMULATIONS
        page = 1 + self.rng.randrange(-(-total // size))
        rows = min(size, total - (page - 1) * size)
        params = {"table": "RESULT_FILE", "val_TIMESTEP": str(timestep),
                  "page": str(page), "page_size": str(size)}
        return "/search", params, lambda s, b: _page_check(s, b, rows, total, size)

    def _browse_pk(self):
        params = {"ref": "RESULT_FILE.SIMULATION_KEY", "value": self._sim().key}
        return "/browse/pk", params, lambda s, b: _page_check(s, b, self.w.TIMESTEPS)

    def _browse_fk(self):
        params = {"colid": "SIMULATION.AUTHOR_KEY",
                  "value": self._sim().author_key}
        return "/browse/fk", params, lambda s, b: _page_check(s, b, 1)

    def _query(self):
        table = self.rng.choice(("SIMULATION", "RESULT_FILE", "AUTHOR"))
        return "/query", {"table": table}, lambda s, b: _contains(s, b, b"<form")

    def _home(self):
        return "/", {}, lambda s, b: _contains(s, b, b'href="/query?table=SIMULATION"')


def _contains(status: int, body: bytes, marker: bytes):
    if status != 200:
        return f"status {status}: {body[:120]!r}"
    return None if marker in body else f"page lacks {marker!r}"


# -- analysis --------------------------------------------------------------------


#: (operation, parameter sets) — every GetImage slice/component, every
#: Subsample factor and Vorticity slice, plus the parameterless reductions
OPERATIONS = (
    [("GetImage", {"slice": f"x{i}", "type": c}) for i in range(8) for c in "uvwp"]
    + [("Subsample", {"factor": f}) for f in ("2", "4", "8")]
    + [("Vorticity", {"slice": f"x{i}"}) for i in range(8)]
    + [("FieldStats", {}), ("EnergySpectrum", {})]
)


class Analysis(_Base):
    """Tokenized downloads and server-side operations by two registered
    users.

    One session downloads while the other runs operations.  Two sessions
    never run operations at the same time: ``Sandbox.run_source`` changes
    the process-wide working directory, so concurrent operations in one
    process fail (see the benchmark README).
    """

    name = "analysis"
    classes = ("operation", "download")
    N_SIMULATIONS = 24
    TIMESTEPS = 4
    GRID = 32

    def setup(self) -> None:
        catalog = Catalog(self.N_SIMULATIONS, self.TIMESTEPS, self.seed)
        archive, contents = deploy(
            catalog, grid=self.GRID, seed=self.seed, replication_factor=2
        )
        self._serve(archive, os.path.join(self.work_dir, "sandbox"))
        self.downloader = Browser(self.adapter, "turbulence", "consortium")
        self.processor = Browser(self.adapter, "turbulence", "consortium")
        # the tokenized URLs a browser holds after opening each
        # simulation's RESULT_FILE page
        self.files = []
        for sim in catalog.simulations:
            status, body = self.downloader.get(
                "/browse/pk", {"ref": "RESULT_FILE.SIMULATION_KEY",
                               "value": sim.key},
            )
            hrefs = _DATALINK_HREF.findall(body.decode("utf-8"))
            if status != 200 or len(hrefs) != self.TIMESTEPS:
                raise RuntimeError(f"cannot list result files of {sim.key}")
            for href in hrefs:
                url = html.unescape(href)
                plain = DatalinkValue.parse_tokenized(url)
                self.files.append(
                    (url, sim.key, plain.filename, _sha(contents[plain.url]))
                )
        self.first_output: dict[tuple, str] = {}

    def sessions(self) -> list:
        return [_DownloadSession(self), _OperationSession(self)]

    def final_checks(self) -> list[str]:
        """Each distinct operation key's output must equal a cache-bypassed
        reference run of the same operation."""
        failures = []
        rows = {}
        for row in self.archive.result_rows():
            rows[(row["SIMULATION_KEY"], row["FILE_NAME"])] = row
        for key, digest in sorted(self.first_output.items()):
            name, file_index, params = key
            _url, sim_key, file_name, _ = self.files[file_index]
            result = self.engine.invoke(
                name, "RESULT_FILE.DOWNLOAD_RESULT", rows[(sim_key, file_name)],
                dict(params), use_cache=False,
            )
            (_, data), = result.outputs.items()
            if _sha(data) != digest:
                failures.append(f"{name} on {sim_key}/{file_name} {params}: "
                                "output differs from the uncached reference")
        return failures


class _DownloadSession:
    def __init__(self, workload: Analysis) -> None:
        self.w = workload
        seed = workload.seed * 1009 + 11
        order = list(range(len(workload.files)))
        random.Random(seed).shuffle(order)
        self.order = order
        self.zipf = Zipf(len(order), 1.0, seed + 1)

    def step(self, rec: Recorder):
        url, _sim, _name, digest = self.w.files[self.order[self.zipf.draw()]]
        (status, body), latency = rec.timed(
            "download", self.w.downloader.get, "/download", {"url": url}
        )
        if status != 200:
            failure = f"status {status}: {body[:120]!r}"
        elif _sha(body) != digest:
            failure = f"{url}: bytes differ from those put"
        else:
            failure = None
        return [("download", latency, failure)]


class _OperationSession:
    """Operations in shuffled cycles of CYCLE; each picks its dataset and
    parameters with Zipf skew (s=0.8)."""

    SKEW = 0.8
    #: GetImage is 6 of every 10 operations.  Its 3,072 keys almost never
    #: repeat, so its misses form one tight latency cluster that holds the
    #: operation median, which would otherwise fall on a gap between two
    #: kernels' clusters and jump between runs; FieldStats (1 in 10, the
    #: slowest kernel) holds the p99.
    CYCLE = ("GetImage",) * 6 + ("Subsample", "Vorticity", "FieldStats",
                                 "EnergySpectrum")

    def __init__(self, workload: Analysis) -> None:
        self.w = workload
        seed = workload.seed * 1009 + 12
        self.rng = random.Random(seed)
        self.params = {}
        for name, params in OPERATIONS:
            self.params.setdefault(name, []).append(tuple(sorted(params.items())))
        for options in self.params.values():
            self.rng.shuffle(options)
        self.param_zipf = {
            name: Zipf(len(options), self.SKEW, seed + 1 + i)
            for i, (name, options) in enumerate(self.params.items())
        }
        self.file_order = list(range(len(workload.files)))
        self.rng.shuffle(self.file_order)
        self.file_zipf = Zipf(len(self.file_order), self.SKEW, seed)
        self.queue: list[str] = []

    def step(self, rec: Recorder):
        if not self.queue:
            self.queue = list(self.CYCLE)
            self.rng.shuffle(self.queue)
        name = self.queue.pop()
        params = self.params[name][self.param_zipf[name].draw()]
        index = self.file_order[self.file_zipf.draw()]
        key = (name, index, params)
        _url, sim_key, file_name, _digest = self.w.files[index]
        query = {"name": name, "colid": "RESULT_FILE.DOWNLOAD_RESULT",
                 "key_FILE_NAME": file_name, "key_SIMULATION_KEY": sim_key,
                 **dict(params)}
        (status, body), latency = rec.timed(
            "operation", self.w.processor.get, "/operation/run", query
        )
        failure = None
        if status != 200:
            failure = f"status {status}: {body[:120]!r}"
        elif self.w.first_output.setdefault(key, _sha(body)) != _sha(body):
            failure = f"{key}: output changed between calls"
        return [("operation", latency, failure)]


# -- ingest ------------------------------------------------------------------------


class Ingest(_Base):
    """Durable re-registration of simulation results by one writer session.

    Each transaction replaces one simulation's results with a new
    generation, round-robin over the archive's simulations, so the
    archive keeps a constant size and every run does the same work per
    commit.  The database is ``Database(directory, sync=True)``: every
    commit is fsynced before COMMIT returns, on every run.  There is no
    concurrent reader: a reader browsing the simulations being written
    makes the run bistable (see the benchmark README).
    """

    name = "ingest"
    #: "commit": one writer transaction, BEGIN to the return of COMMIT,
    #: plus the checkpoint every CHECKPOINT_EVERY-th transaction triggers;
    #: "commit_stmt": the COMMIT statement alone (WAL append and fsync,
    #: link apply, replication enqueue)
    classes = ("commit", "commit_stmt")
    N_SIMULATIONS = 100
    TIMESTEPS = 4
    GRID = 2
    #: 1 transaction in 40 checkpoints: 2.5% of the commit samples, so the
    #: commit p99 lies among them and moves with the checkpoint's cost
    CHECKPOINT_EVERY = 40

    def setup(self) -> None:
        self.directory = os.path.join(self.work_dir, "db")
        self.catalog = Catalog(self.N_SIMULATIONS, self.TIMESTEPS, self.seed)
        archive, _contents = deploy(
            self.catalog, grid=self.GRID, seed=self.seed,
            replication_factor=2, directory=self.directory,
        )
        self._serve(archive, os.path.join(self.work_dir, "sandbox"))
        self.writer_conn = archive.db.connect()
        self.connections = (self.writer_conn,)
        #: simulation key -> (generation, title) of its last acknowledged
        #: registration
        self.acked = {s.key: (0, s.title) for s in self.catalog.simulations}
        # payloads the writer cycles through: file bytes are not what this
        # workload measures, and generating them per commit would add
        # numpy work to the writer's loop
        self.payloads = [
            [make_timestep_file(self.GRID, seed=self.seed + i, timestep=t)
             for t in range(self.TIMESTEPS)]
            for i in range(16)
        ]

    def sessions(self) -> list:
        return [_WriterSession(self)]

    def final_checks(self) -> list[str]:
        """Reopen the database from its directory: every simulation must
        hold its last acknowledged generation, and DATALINK reconciliation
        must be clean."""
        self.teardown()  # stop the pump; the archive is quiescent now
        reopened = Database(self.directory)
        titles = dict(reopened.execute(
            "SELECT SIMULATION_KEY, TITLE FROM SIMULATION").rows)
        links: dict[str, list[str]] = {}
        for key, link in reopened.execute(
                "SELECT SIMULATION_KEY, DOWNLOAD_RESULT FROM RESULT_FILE").rows:
            links.setdefault(key, []).append(link.url)
        failures = []
        for key, (generation, title) in sorted(self.acked.items()):
            if titles.get(key) != title:
                failures.append(f"{key}: title {titles.get(key)!r} after "
                                f"reopen, acknowledged {title!r}")
            expected = sorted(result_path(key, generation, t)
                              for t in range(self.TIMESTEPS))
            found = sorted(url.split("soton.ac.uk", 1)[1]
                           for url in links.get(key, ()))
            if found != expected:
                failures.append(f"{key}: result files {found} after reopen, "
                                f"acknowledged generation {generation}")
        report = reconcile(reopened, self.archive.linker)
        if not report.consistent:
            failures.append("reconcile after reopen: " + report.describe())
        return failures


class _WriterSession:
    def __init__(self, workload: Ingest) -> None:
        self.w = workload
        self.rng = random.Random(workload.seed * 1009 + 21)
        self.commits = 0

    def step(self, rec: Recorder):
        w = self.w
        slot = self.commits % w.N_SIMULATIONS
        generation = self.commits // w.N_SIMULATIONS + 1
        base = w.catalog.simulations[slot]
        sim = Simulation(
            key=base.key, author_key=base.author_key,
            title=f"{base.title.split(' (')[0]} (generation {generation})",
            grid_size=base.grid_size,
            reynolds=180.0 + 10.0 * self.rng.randrange(1000),
        )
        try:
            commit_s, latency = rec.timed(
                "commit", self._transaction, sim, slot, generation
            )
        except Exception as exc:  # a failed commit is a counted failure
            return [("commit", None, f"{type(exc).__name__}: {exc}")]
        self.commits += 1
        return [("commit", latency, None), ("commit_stmt", commit_s, None)]

    def _transaction(self, sim: Simulation, slot: int, generation: int) -> float:
        """Register ``sim``, acknowledge it once COMMIT has returned, and
        checkpoint if this transaction is due to; returns the seconds the
        COMMIT statement took."""
        w = self.w
        files = w.payloads[self.commits % len(w.payloads)]
        commit_s = register_simulation(
            w.writer_conn, w.archive.servers, sim, files, slot, generation
        )
        w.acked[sim.key] = (generation, sim.title)
        if (self.commits + 1) % w.CHECKPOINT_EVERY == 0:
            w.archive.db.checkpoint()
        return commit_s


WORKLOADS = {cls.name: cls for cls in (PortalBrowse, Analysis, Ingest)}
