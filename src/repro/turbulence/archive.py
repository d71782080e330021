"""Build a populated turbulence archive.

One call assembles the whole EASIA deployment the paper demonstrates:
authors and simulations in the database at Southampton, per-timestep
result files distributed across file servers (archived where they were
generated), post-processing codes archived as DATALINKs, a customised
XUIS with the GetImage/FieldStats/Subsample operations and code-upload
permission, and the guest/user/admin accounts.
"""

from __future__ import annotations

import datetime as dt
import time
from typing import Callable

from repro.datalink import DataLinker, TokenManager
from repro.fileserver import FileServer
from repro.operations import OperationEngine, scientific_data_browser
from repro.operations.urlops import interactive_slice_browser
from repro.sqldb import Database
from repro.sqldb.types import Blob
from repro.turbulence.codes import CODES, code_archive
from repro.turbulence.generator import make_timestep_file
from repro.turbulence.schema import create_turbulence_schema
from repro.web.auth import UserManager
from repro.web.render import result_rows_as_dicts
from repro.xuis import (
    Condition,
    Customizer,
    DatabaseResultLocation,
    OperationSpec,
    ParamSpec,
    RadioControl,
    SelectControl,
    UploadSpec,
    UrlLocation,
    XuisDocument,
    generate_default_xuis,
)

__all__ = ["TurbulenceArchive", "build_turbulence_archive", "SDB_URL"]

_AUTHORS = [
    ("Mark Papiani", "papiani@computer.org", "University of Southampton"),
    ("Jasmin Wason", "jlw98r@ecs.soton.ac.uk", "University of Southampton"),
    ("Denis Nicole", "dan@ecs.soton.ac.uk", "University of Southampton"),
    ("Kenji Takeda", "ktakeda@soton.ac.uk", "University of Southampton"),
]

_TITLES = [
    "Turbulent channel flow at Re_tau=180",
    "Temporal mixing layer",
    "Homogeneous isotropic decay",
    "Turbulent pipe flow",
    "Boundary layer with pressure gradient",
    "Taylor-Green vortex breakdown",
]

SDB_URL = "http://quagga.ecs.soton.ac.uk:8080/servlet/SDBservlet"
BROWSER_URL = "http://quagga.ecs.soton.ac.uk:8080/servlet/SliceBrowser"


class TurbulenceArchive:
    """A fully wired EASIA deployment over synthetic turbulence data."""

    def __init__(
        self,
        db: Database,
        linker: DataLinker,
        servers: list[FileServer],
        document: XuisDocument,
        users: UserManager,
        simulation_keys: list[str],
        grid: int,
        replication=None,
    ) -> None:
        self.db = db
        self.linker = linker
        #: the logical file servers URLs name — plain :class:`FileServer`
        #: instances, or :class:`~repro.replication.ReplicaSet` facades
        #: when the archive was built with ``replication_factor > 1``
        self.servers = servers
        self.document = document
        self.users = users
        self.simulation_keys = simulation_keys
        self.grid = grid
        #: the :class:`~repro.replication.ReplicationManager`, or None for
        #: an unreplicated deployment
        self.replication = replication

    def make_engine(self, sandbox_root: str, **kwargs) -> OperationEngine:
        """An operation engine over this archive, with the SDB URL service
        pre-registered."""
        engine = OperationEngine(
            self.db, self.linker, self.document, sandbox_root, **kwargs
        )
        engine.register_url_service(SDB_URL, scientific_data_browser)
        engine.register_url_service(BROWSER_URL, interactive_slice_browser)
        return engine

    def result_rows(self, simulation_key: str | None = None) -> list[dict]:
        """RESULT_FILE rows as colid-keyed dicts (operation-ready)."""
        sql = "SELECT * FROM RESULT_FILE"
        params: tuple = ()
        if simulation_key is not None:
            sql += " WHERE SIMULATION_KEY = ?"
            params = (simulation_key,)
        return result_rows_as_dicts("RESULT_FILE", self.db.execute(sql, params))

    @property
    def total_archived_bytes(self) -> int:
        return sum(server.filesystem.total_bytes() for server in self.servers)


def build_turbulence_archive(
    n_simulations: int = 3,
    timesteps: int = 3,
    grid: int = 16,
    n_file_servers: int = 2,
    seed: int = 7,
    token_validity: float = 600.0,
    time_source: Callable[[], float] = time.time,
    replication_factor: int = 1,
) -> TurbulenceArchive:
    """Assemble the archive.  Deterministic for a given parameter set.

    With ``replication_factor > 1`` each logical file server becomes a
    replica set over that many physical hosts (``fs1-a.soton.ac.uk``,
    ``fs1-b.soton.ac.uk``, ...): DATALINK URLs still name the logical
    host, reads fail over, and writes replicate asynchronously.
    """
    tokens = TokenManager(
        secret=b"easia-shared-secret", validity_seconds=token_validity,
        time_source=time_source,
    )
    linker = DataLinker(tokens)
    replication = None
    if replication_factor > 1:
        from repro.replication import ReplicationManager

        replication = ReplicationManager(
            linker, replication_factor, time_source=time_source
        )
        servers = []
        for i in range(n_file_servers):
            logical = f"fs{i + 1}.soton.ac.uk"
            physical = [
                FileServer(f"fs{i + 1}-{chr(ord('a') + j)}.soton.ac.uk")
                for j in range(replication_factor)
            ]
            servers.append(replication.create_replica_set(logical, physical))
    else:
        servers = [
            linker.register_server(FileServer(f"fs{i + 1}.soton.ac.uk"))
            for i in range(n_file_servers)
        ]
    db = Database()
    db.set_datalink_hooks(linker)
    create_turbulence_schema(db)

    # -- authors ---------------------------------------------------------
    author_keys = []
    for i, (name, email, institution) in enumerate(_AUTHORS):
        key = f"A1999011015{i:04d}"
        author_keys.append(key)
        db.execute(
            "INSERT INTO AUTHOR VALUES (?, ?, ?, ?)",
            (key, name, email, institution),
        )

    # -- simulations and result files -------------------------------------
    simulation_keys = []
    for s in range(n_simulations):
        sim_key = f"S1999011015{s:04d}"
        simulation_keys.append(sim_key)
        author = author_keys[s % len(author_keys)]
        title = _TITLES[s % len(_TITLES)]
        db.execute(
            "INSERT INTO SIMULATION VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                sim_key,
                author,
                title,
                f"Synthetic reproduction dataset for: {title}",
                grid,
                180.0 + 40.0 * s,
                timesteps,
                dt.date(1999, 1, 10),
            ),
        )
        # Archive each timestep where it was generated: simulations are
        # pinned to a home file server, round-robin.
        server = servers[s % len(servers)]
        for t in range(timesteps):
            data = make_timestep_file(grid, seed=seed + s, timestep=t)
            path = f"/data/{sim_key}/ts{t:04d}.turb"
            server.put(path, data)
            file_name = f"ts{t:04d}.turb"
            db.execute(
                "INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    file_name,
                    sim_key,
                    t,
                    "u,v,w,p",
                    "TURB",
                    len(data),
                    f"http://{server.host}{path}",
                ),
            )

    # -- post-processing codes, archived as DATALINKs ------------------------
    code_server = servers[0]
    for code_name in sorted(CODES):
        archive_bytes = code_archive(code_name, "jar")
        path = f"/codes/{code_name}.jar"
        code_server.put(path, archive_bytes)
        db.execute(
            "INSERT INTO CODE_FILE VALUES (?, ?, ?, ?, ?)",
            (
                f"{code_name}.jar",
                None,
                "POST_PROCESS",
                f"Server-side post-processing code: {code_name}",
                f"http://{code_server.host}{path}",
            ),
        )

    # -- a visualisation file with a BLOB preview ------------------------------
    preview = Blob(b"P5\n2 2\n255\n\x00\x40\x80\xff", "image/x-portable-graymap")
    vis_path = f"/vis/{simulation_keys[0]}/overview.pgm"
    servers[0].put(vis_path, b"P5\n4 4\n255\n" + bytes(range(16)))
    db.execute(
        "INSERT INTO VISUALISATION_FILE VALUES (?, ?, ?, ?, ?)",
        (
            "overview.pgm",
            simulation_keys[0],
            "PGM",
            preview,
            f"http://{servers[0].host}{vis_path}",
        ),
    )

    document = _build_document(db, grid)
    users = _build_users()
    if replication is not None:
        # the build wrote through the primaries; catch the followers up so
        # the archive starts with zero replication lag
        replication.drain()
    return TurbulenceArchive(
        db, linker, servers, document, users, simulation_keys, grid,
        replication=replication,
    )


def _build_document(db: Database, grid: int) -> XuisDocument:
    """Default XUIS plus the paper's customisations."""
    base = generate_default_xuis(db, title="UK Turbulence Consortium Archive")
    slice_options = [
        (f"x{i}", f"x{i}={i / grid:.7g}") for i in range(min(grid, 8))
    ]
    turb_only = [Condition("RESULT_FILE.FILE_FORMAT", "eq", "TURB")]

    def code_location(jar: str) -> DatabaseResultLocation:
        return DatabaseResultLocation(
            "CODE_FILE.DOWNLOAD_CODE_FILE",
            [Condition("CODE_FILE.CODE_NAME", "eq", jar)],
        )

    get_image = OperationSpec(
        "GetImage",
        type="JAVA",
        filename="GetImage.class",
        format="jar",
        guest_access=True,
        conditions=turb_only,
        location=code_location("GetImage.jar"),
        params=[
            ParamSpec(
                "Select the slice you wish to visualise:",
                SelectControl("slice", slice_options, size=4),
            ),
            ParamSpec(
                "Select velocity component or pressure:",
                RadioControl(
                    "type",
                    [("u", "u speed"), ("v", "v speed"),
                     ("w", "w speed"), ("p", "pressure")],
                ),
            ),
        ],
        description="Visualise one slice of the dataset as an image",
    )
    field_stats = OperationSpec(
        "FieldStats",
        type="JAVA",
        filename="FieldStats.class",
        format="jar",
        guest_access=True,
        conditions=turb_only,
        location=code_location("FieldStats.jar"),
        description="Per-field min/max/mean/rms statistics",
    )
    subsample = OperationSpec(
        "Subsample",
        type="JAVA",
        filename="Subsample.class",
        format="jar",
        guest_access=False,  # guests are limited in the operations they run
        conditions=turb_only,
        location=code_location("Subsample.jar"),
        params=[
            ParamSpec(
                "Subsampling factor:",
                SelectControl("factor", [("2", "2"), ("4", "4"), ("8", "8")]),
            )
        ],
        description="Reduce the dataset by keeping every k-th grid point",
    )
    vorticity = OperationSpec(
        "Vorticity",
        type="JAVA",
        filename="Vorticity.class",
        format="jar",
        guest_access=True,
        conditions=turb_only,
        location=code_location("Vorticity.jar"),
        params=[
            ParamSpec(
                "Select the slice for the vorticity map:",
                SelectControl("slice", slice_options, size=4),
            )
        ],
        description="Vorticity magnitude on one slice, as an image",
    )
    spectrum = OperationSpec(
        "EnergySpectrum",
        type="JAVA",
        filename="EnergySpectrum.class",
        format="jar",
        guest_access=True,
        conditions=turb_only,
        location=code_location("EnergySpectrum.jar"),
        description="Radially binned kinetic-energy spectrum E(k)",
    )
    sdb = OperationSpec(
        "SDB",
        guest_access=True,
        conditions=turb_only,
        location=UrlLocation(SDB_URL),
        description="NCSA Scientific Data Browser",
    )
    slice_browser = OperationSpec(
        "SliceBrowser",
        guest_access=True,
        conditions=turb_only,
        location=UrlLocation(BROWSER_URL),
        params=[
            ParamSpec(
                "Component to browse interactively:",
                RadioControl(
                    "type",
                    [("u", "u speed"), ("v", "v speed"),
                     ("w", "w speed"), ("p", "pressure")],
                ),
            )
        ],
        description="Interactive applet-style slice browser",
    )
    customizer = (
        Customizer(base)
        .table_alias("SIMULATION", "Numerical Simulations")
        .substitute_fk("SIMULATION.AUTHOR_KEY", "AUTHOR.NAME")
        .attach_operation("RESULT_FILE.DOWNLOAD_RESULT", get_image)
        .attach_operation("RESULT_FILE.DOWNLOAD_RESULT", field_stats)
        .attach_operation("RESULT_FILE.DOWNLOAD_RESULT", subsample)
        .attach_operation("RESULT_FILE.DOWNLOAD_RESULT", vorticity)
        .attach_operation("RESULT_FILE.DOWNLOAD_RESULT", spectrum)
        .attach_operation("RESULT_FILE.DOWNLOAD_RESULT", sdb)
        .attach_operation("RESULT_FILE.DOWNLOAD_RESULT", slice_browser)
        .allow_upload(
            "RESULT_FILE.DOWNLOAD_RESULT",
            UploadSpec(
                type="JAVA",
                format="jar",
                guest_access=False,
                conditions=[Condition("RESULT_FILE.MEASUREMENT", "eq", "u,v,w,p")],
            ),
        )
    )
    return customizer.document


def _build_users() -> UserManager:
    users = UserManager(with_guest=True)  # guest/guest, as in the demo
    users.add_user("turbulence", "consortium", role="user")
    users.add_user("admin", "hpcadmin", role="admin")
    return users
