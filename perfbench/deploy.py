"""Build the EASIA deployment each workload runs against.

:func:`deploy` assembles what ``build_turbulence_archive`` assembles —
token manager, DataLinker, file servers (optionally replica sets under a
ReplicationManager), the five-table schema, authors, simulations with
their DATALINKed result files, the archived post-processing codes, the
customised XUIS and the user accounts — but over a seeded catalog
(:class:`Catalog`) whose metadata lets the benchmark predict every search
result, and over an optionally durable ``Database(directory, sync=True)``.
"""

from __future__ import annotations

import datetime as dt
import random
from time import perf_counter

from repro.datalink import DataLinker, TokenManager
from repro.fileserver import FileServer
from repro.replication import ReplicationManager
from repro.sqldb import Database
from repro.sqldb.types import Blob
from repro.turbulence import TurbulenceArchive
from repro.turbulence.archive import _build_document, _build_users
from repro.turbulence.codes import CODES, code_archive
from repro.turbulence.generator import make_timestep_file
from repro.turbulence.schema import create_turbulence_schema

__all__ = [
    "AUTHORS", "Catalog", "Simulation", "deploy", "register_simulation",
    "result_path",
]

AUTHORS = [
    ("A19990110150000", "Mark Papiani", "papiani@computer.org"),
    ("A19990110150001", "Jasmin Wason", "jlw98r@ecs.soton.ac.uk"),
    ("A19990110150002", "Denis Nicole", "dan@ecs.soton.ac.uk"),
    ("A19990110150003", "Kenji Takeda", "ktakeda@soton.ac.uk"),
]

#: title stem -> the word a ``LIKE '%word%'`` search uses to find it.  Each
#: word occurs in exactly one stem, in any letter case.
TITLE_WORDS = {
    "Turbulent channel flow": "channel",
    "Temporal mixing layer": "mixing",
    "Homogeneous isotropic decay": "isotropic",
    "Turbulent pipe flow": "pipe",
    "Boundary layer with pressure gradient": "pressure",
    "Taylor-Green vortex breakdown": "vortex",
    "Rotating stratified shear": "stratified",
    "Backward-facing step": "step",
    "Jet in crossflow": "crossflow",
    "Buoyant plume": "plume",
}
GRID_SIZES = (32, 64, 128, 256)
#: file servers (or replica sets) the result files are spread over
FILE_SERVERS = 2


class Simulation:
    __slots__ = ("key", "author_key", "title", "grid_size", "reynolds")

    def __init__(self, key, author_key, title, grid_size, reynolds) -> None:
        self.key = key
        self.author_key = author_key
        self.title = title
        self.grid_size = grid_size
        self.reynolds = reynolds


class Catalog:
    """Seeded simulation metadata.

    The multisets of titles, grid sizes and Reynolds numbers are fixed;
    the seed only permutes which simulation gets which value.  So every
    seed gives searches of the same selectivity, and the benchmark can
    predict each search's row count from this object alone.
    """

    def __init__(self, n_simulations: int, timesteps: int, seed: int) -> None:
        self.timesteps = timesteps
        rng = random.Random(seed)
        stems = list(TITLE_WORDS)
        order = list(range(n_simulations))
        rng.shuffle(order)
        reynolds = [180.0 + 10.0 * i for i in range(n_simulations)]
        rng.shuffle(reynolds)
        self.simulations = [
            Simulation(
                key=f"S1999{i:06d}",
                author_key=AUTHORS[i % len(AUTHORS)][0],
                title=f"{stems[order[i] % len(stems)]} (run {i})",
                grid_size=GRID_SIZES[order[i] % len(GRID_SIZES)],
                reynolds=reynolds[i],
            )
            for i in range(n_simulations)
        ]

    def count_title(self, word: str) -> int:
        word = word.lower()
        return sum(1 for s in self.simulations if word in s.title.lower())

    def count_range(self, min_grid: int, max_reynolds: float) -> int:
        return sum(
            1 for s in self.simulations
            if s.grid_size >= min_grid and s.reynolds < max_reynolds
        )


def result_path(key: str, generation: int, timestep: int) -> str:
    """Where a simulation's result file lives.  Generations alternate
    between two directories, so a replacement writes files that are not
    linked (the current ones are, WRITE PERMISSION BLOCKED)."""
    return f"/data/{key}/g{generation % 2}/ts{timestep:04d}.turb"


def register_simulation(conn, servers, sim: Simulation, files: list[bytes],
                        index: int, generation: int = 0) -> float:
    """One transaction: put the timestep files on the simulation's home
    file server, then — generation 0 — insert SIMULATION, or — a later
    generation — delete its RESULT_FILE rows (unlinking the previous
    files) and update SIMULATION; insert the new RESULT_FILE rows, commit.
    Returns the seconds the COMMIT statement took."""
    server = servers[index % len(servers)]
    conn.execute("BEGIN")
    try:
        for t, data in enumerate(files):
            server.put(result_path(sim.key, generation, t), data)
        if generation == 0:
            conn.execute(
                "INSERT INTO SIMULATION VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (sim.key, sim.author_key, sim.title,
                 f"Synthetic reproduction dataset for: {sim.title}",
                 sim.grid_size, sim.reynolds, len(files), dt.date(1999, 1, 10)),
            )
        else:
            conn.execute("DELETE FROM RESULT_FILE WHERE SIMULATION_KEY = ?",
                         (sim.key,))
            conn.execute(
                "UPDATE SIMULATION SET TITLE = ?, REYNOLDS = ? "
                "WHERE SIMULATION_KEY = ?",
                (sim.title, sim.reynolds, sim.key),
            )
        for t, data in enumerate(files):
            conn.execute(
                "INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?, ?, ?, ?)",
                (f"ts{t:04d}.turb", sim.key, t, "u,v,w,p", "TURB", len(data),
                 f"http://{server.host}{result_path(sim.key, generation, t)}"),
            )
        started = perf_counter()
        conn.execute("COMMIT")
        return perf_counter() - started
    except BaseException:
        if conn.in_transaction:
            conn.execute("ROLLBACK")
        raise


def deploy(catalog: Catalog, grid: int, seed: int,
           replication_factor: int = 1,
           directory: str | None = None) -> tuple[TurbulenceArchive, dict]:
    """Assemble the archive; returns it and ``{url: bytes}`` of every
    result file put.  ``directory`` makes the database durable with
    ``sync=True`` (fsync per commit)."""
    tokens = TokenManager(secret=b"easia-shared-secret", validity_seconds=3600.0)
    linker = DataLinker(tokens)
    replication = None
    if replication_factor > 1:
        replication = ReplicationManager(linker, replication_factor)
        servers = [
            replication.create_replica_set(
                f"fs{i + 1}.soton.ac.uk",
                [FileServer(f"fs{i + 1}-{chr(ord('a') + j)}.soton.ac.uk")
                 for j in range(replication_factor)],
            )
            for i in range(FILE_SERVERS)
        ]
    else:
        servers = [
            linker.register_server(FileServer(f"fs{i + 1}.soton.ac.uk"))
            for i in range(FILE_SERVERS)
        ]
    db = Database(directory, sync=True) if directory else Database()
    db.set_datalink_hooks(linker)
    create_turbulence_schema(db)
    for key, name, email in AUTHORS:
        db.execute("INSERT INTO AUTHOR VALUES (?, ?, ?, ?)",
                   (key, name, email, "University of Southampton"))

    contents: dict[str, bytes] = {}
    conn = db.connect()
    for i, sim in enumerate(catalog.simulations):
        files = [
            make_timestep_file(grid, seed=seed + i, timestep=t)
            for t in range(catalog.timesteps)
        ]
        register_simulation(conn, servers, sim, files, i)
        host = servers[i % len(servers)].host
        for t, data in enumerate(files):
            contents[f"http://{host}{result_path(sim.key, 0, t)}"] = data
    conn.close()

    code_server = servers[0]
    for code_name in sorted(CODES):
        path = f"/codes/{code_name}.jar"
        code_server.put(path, code_archive(code_name, "jar"))
        db.execute(
            "INSERT INTO CODE_FILE VALUES (?, ?, ?, ?, ?)",
            (f"{code_name}.jar", None, "POST_PROCESS",
             f"Server-side post-processing code: {code_name}",
             f"http://{code_server.host}{path}"),
        )
    first = catalog.simulations[0].key
    vis_path = f"/vis/{first}/overview.pgm"
    code_server.put(vis_path, b"P5\n4 4\n255\n" + bytes(range(16)))
    db.execute(
        "INSERT INTO VISUALISATION_FILE VALUES (?, ?, ?, ?, ?)",
        ("overview.pgm", first, "PGM",
         Blob(b"P5\n2 2\n255\n\x00\x40\x80\xff", "image/x-portable-graymap"),
         f"http://{code_server.host}{vis_path}"),
    )
    if replication is not None:
        replication.drain()
    archive = TurbulenceArchive(
        db, linker, servers, _build_document(db, grid), _build_users(),
        [s.key for s in catalog.simulations], grid, replication=replication,
    )
    return archive, contents
