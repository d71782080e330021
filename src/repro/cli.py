"""Command-line interface.

``python -m repro <command>``:

* ``sql``       — execute SQL against a (durable) database: ``-c`` for a
  single statement/script, or an interactive prompt on a TTY,
* ``serve``     — build the turbulence demo archive and serve the portal
  over HTTP (wsgiref),
* ``xuis``      — generate the default XUIS for a database directory and
  print it,
* ``table1``    — print the paper's Table 1 from the calibrated model,
* ``demo``      — build the demo archive and print a summary,
* ``obs``       — run an instrumented sample workload against the demo
  archive and dump the observability snapshot (metrics, slow queries,
  recent spans).

The CLI is intentionally thin: every command is a few lines over the
public library API, and doubles as executable documentation.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

__all__ = ["main"]


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.sqldb import Database

    db = Database(args.database)
    if args.command:
        return _run_script(db, args.command)
    if not sys.stdin.isatty():
        return _run_script(db, sys.stdin.read())
    print("EASIA SQL shell — terminate statements with ';', exit with \\q")
    buffer: list[str] = []
    while True:
        try:
            prompt = "sql> " if not buffer else "...> "
            line = input(prompt)
        except EOFError:
            break
        if line.strip() == "\\q":
            break
        buffer.append(line)
        if line.rstrip().endswith(";"):
            _run_script(db, "\n".join(buffer))
            buffer.clear()
    return 0


def _run_script(db, text: str) -> int:
    try:
        results = db.execute_script(text)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        if result.columns:
            print("\t".join(result.columns))
            for row in result.rows:
                print("\t".join("" if v is None else str(v) for v in row))
            print(f"({len(result.rows)} row(s))")
        elif result.rowcount:
            print(f"ok ({result.rowcount} row(s) affected)")
        else:
            print("ok")
    return 0


def _build_demo(args: argparse.Namespace):
    from repro.turbulence import build_turbulence_archive

    return build_turbulence_archive(
        n_simulations=args.simulations,
        timesteps=args.timesteps,
        grid=args.grid,
        n_file_servers=args.file_servers,
        replication_factor=getattr(args, "replication_factor", 1),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import tempfile

    from repro import EasiaApp
    from repro.sqldb.connection import ConnectionPool
    from repro.web.wsgi import WsgiAdapter, make_threading_server

    if args.obs:
        import repro.obs as obs_mod

        obs_mod.enable()
    archive = _build_demo(args)
    engine = archive.make_engine(tempfile.mkdtemp(prefix="easia-sandbox-"))
    app = EasiaApp(
        archive.db, archive.linker, archive.document, archive.users, engine
    )
    # Thread-per-request serving over a fixed connection pool: each request
    # runs on its own database connection with snapshot reads, so browsing
    # never blocks behind an ingest transaction (docs/CONCURRENCY.md).
    pool = ConnectionPool(archive.db, size=args.pool_size)
    app.container.use_connection_pool(pool)
    if archive.replication is not None:
        # background pump: health probes + follower catch-up while serving
        archive.replication.start()
    httpd = make_threading_server(args.host, args.port, WsgiAdapter(app))
    replicas = (
        f", replication x{archive.replication.placement.replication_factor}"
        if archive.replication is not None else ""
    )
    print(f"EASIA portal at http://{args.host or 'localhost'}:{args.port}/login "
          f"(guest/guest, {args.pool_size} pooled connections{replicas})")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if archive.replication is not None:
            archive.replication.stop()
    return 0


def _cmd_xuis(args: argparse.Namespace) -> int:
    from repro.sqldb import Database
    from repro.xuis import generate_default_xuis, serialize_xuis, validate_xuis

    db = Database(args.database)
    document = generate_default_xuis(db, title=args.title)
    problems = validate_xuis(document, db)
    if problems:
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1
    print(serialize_xuis(document))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.netsim import MBYTE, PAPER_RATES, format_duration, transfer_seconds

    print(f"{'Time':8} {'Direction':18} {'Mbit/s':7} {'85 MB':>10} {'544 MB':>10}")
    for (period, direction), rate in PAPER_RATES.items():
        small = format_duration(transfer_seconds(85 * MBYTE, rate))
        large = format_duration(transfer_seconds(544 * MBYTE, rate))
        label = direction.replace("_", " ").title()
        print(f"{period.title():8} {label:18} {rate:<7} {small:>10} {large:>10}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    archive = _build_demo(args)
    db = archive.db
    print(f"simulations : {db.execute('SELECT COUNT(*) FROM SIMULATION').scalar()}")
    print(f"result files: {db.execute('SELECT COUNT(*) FROM RESULT_FILE').scalar()}")
    print(f"codes       : {db.execute('SELECT COUNT(*) FROM CODE_FILE').scalar()}")
    for server in archive.servers:
        print(
            f"{server.host}: {len(server.filesystem)} files, "
            f"{server.filesystem.total_bytes():,} bytes"
        )
    ops = [
        op.name
        for op in archive.document.column(
            "RESULT_FILE.DOWNLOAD_RESULT"
        ).operations
    ]
    print(f"operations  : {', '.join(ops)}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Exercise the demo archive end to end with observability enabled,
    then dump everything the obs layer collected."""
    import tempfile

    import repro.obs as obs_mod
    from repro import EasiaApp

    handle = obs_mod.enable(slow_query_seconds=args.slow_query_seconds)
    archive = _build_demo(args)
    with tempfile.TemporaryDirectory(prefix="easia-obs-") as sandbox:
        engine = archive.make_engine(sandbox)
        app = EasiaApp(
            archive.db, archive.linker, archive.document, archive.users, engine
        )
        session = app.login("guest", "guest")
        app.get("/", session_id=session)
        app.get(
            "/search",
            {"table": "SIMULATION", "show_SIMULATION_KEY": "on",
             "show_TITLE": "on"},
            session_id=session,
        )
        app.get("/table", {"name": "RESULT_FILE"}, session_id=session)
        archive.db.execute(
            "SELECT COUNT(*) FROM RESULT_FILE WHERE SIMULATION_KEY IS NOT NULL"
        )
        metrics = app.metrics_text()

    print("=== metrics ===")
    print(metrics.rstrip("\n"))
    slow = handle.slow_query.entries()
    print(f"\n=== slow queries (>= {handle.slow_query.threshold_seconds}s): "
          f"{len(slow)} ===")
    for entry in slow:
        print(f"{entry['elapsed'] * 1e3:8.2f} ms  {entry['sql']}")
    spans = handle.tracer.snapshot()
    print(f"\n=== spans ({len(spans)} recorded, newest last) ===")
    shown = spans[-args.spans:] if args.spans > 0 else []
    for span in shown:
        indent = "  " if span["parent_id"] is not None else ""
        print(f"{indent}{span['name']:24} {span['duration'] * 1e3:8.3f} ms  "
              f"{span['attributes']}")
    obs_mod.disable()
    return 0


def _cmd_replicas(args: argparse.Namespace) -> int:
    """Inspect or repair the demo archive's replica sets."""
    archive = _build_demo(args)
    manager = archive.replication
    if manager is None:
        print(
            "archive is not replicated (use --replication-factor >= 2)",
            file=sys.stderr,
        )
        return 1
    if args.action == "repair":
        if args.tamper:
            # demonstration hook: corrupt one follower so the repair pass
            # has something to find and fix
            replica_set = archive.servers[0]
            follower = replica_set.followers[0]
            path = next(iter(follower.server.manifest()))
            follower.server.filesystem.dl_put(path, b"bit-rot")
            print(f"tampered {follower.host}{path}")
        for report in manager.repair(prune=args.prune):
            print(report.describe())
        return 0
    print(manager.describe())
    return 0


def _add_demo_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--simulations", type=int, default=3)
    parser.add_argument("--timesteps", type=int, default=3)
    parser.add_argument("--grid", type=int, default=16)
    parser.add_argument("--file-servers", type=int, default=2)
    parser.add_argument(
        "--replication-factor", type=int, default=1,
        help="physical replicas per logical file server (default 1: none)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EASIA: SQL/MED + XML scientific data archive",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sql = sub.add_parser("sql", help="run SQL against a database directory")
    sql.add_argument("database", nargs="?", default=None,
                     help="database directory (omit for in-memory)")
    sql.add_argument("-c", "--command", help="SQL text to execute")
    sql.set_defaults(fn=_cmd_sql)

    serve = sub.add_parser("serve", help="serve the demo portal over HTTP")
    serve.add_argument("--host", default="")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--pool-size", type=int, default=4,
                       help="database connections serving requests (default 4)")
    serve.add_argument("--obs", action="store_true",
                       help="enable observability (live /metrics and /trace)")
    _add_demo_options(serve)
    serve.set_defaults(fn=_cmd_serve)

    xuis = sub.add_parser("xuis", help="generate the default XUIS for a database")
    xuis.add_argument("database", help="database directory")
    xuis.add_argument("--title", default="EASIA Archive")
    xuis.set_defaults(fn=_cmd_xuis)

    table1 = sub.add_parser("table1", help="print the paper's Table 1")
    table1.set_defaults(fn=_cmd_table1)

    demo = sub.add_parser("demo", help="build the demo archive and summarise it")
    _add_demo_options(demo)
    demo.set_defaults(fn=_cmd_demo)

    obs = sub.add_parser(
        "obs", help="run an instrumented sample workload and dump metrics"
    )
    obs.add_argument("--slow-query-seconds", type=float, default=0.001,
                     help="slow-query log threshold (default 1 ms)")
    obs.add_argument("--spans", type=int, default=20,
                     help="how many recent spans to print")
    _add_demo_options(obs)
    obs.set_defaults(fn=_cmd_obs)

    replicas = sub.add_parser(
        "replicas", help="inspect or repair replicated file servers"
    )
    replicas.add_argument("action", choices=("status", "repair"))
    replicas.add_argument("--prune", action="store_true",
                          help="repair: also delete files absent on primary")
    replicas.add_argument("--tamper", action="store_true",
                          help="repair: corrupt one follower first (demo)")
    _add_demo_options(replicas)
    # replica commands only make sense on a replicated archive
    replicas.set_defaults(fn=_cmd_replicas, replication_factor=2)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # output piped into something like `head` that closed early
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
