"""EASIA — Extensible Architecture for Scientific Information Archives.

A full reproduction of "An Architecture for Archiving and Post-Processing
Large, Distributed, Scientific Data Using SQL/MED and XML" (Papiani,
Wason, Nicole — EDBT 2000), built from scratch in Python:

* :mod:`repro.sqldb` — an object-relational engine (SQL parser, catalog,
  referential integrity, transactions, WAL recovery, BLOB/CLOB/DATALINK),
* :mod:`repro.datalink` — SQL/MED DATALINK semantics: link control,
  transaction-consistent file linking, encrypted expiring access tokens,
  coordinated backup/recovery,
* :mod:`repro.fileserver` — distributed, token-checked file servers,
* :mod:`repro.netsim` — the simulated wide-area network, calibrated to
  the paper's measured bandwidths,
* :mod:`repro.xuis` — the XML User Interface Specification (generation,
  DTD validation, customisation, personalisation),
* :mod:`repro.web` — the schema-driven QBE interface and the EASIA app,
* :mod:`repro.operations` — sandboxed server-side post-processing,
  code upload, caching and statistics,
* :mod:`repro.turbulence` — the UK Turbulence Consortium workload.

Quickstart::

    from repro import build_turbulence_archive, EasiaApp

    archive = build_turbulence_archive()
    engine = archive.make_engine("/tmp/easia-sandbox")
    app = EasiaApp(archive.db, archive.linker, archive.document,
                   archive.users, engine)
    session = app.login("guest", "guest")
    print(app.get("/", session_id=session).text)
"""

from repro.datalink import (
    DataLinker,
    DatalinkSpec,
    DatalinkValue,
    TokenManager,
    coordinated_backup,
    coordinated_restore,
)
from repro.fileserver import FileServer, ServerFileSystem
from repro.netsim import (
    MBYTE,
    BandwidthProfile,
    Host,
    Link,
    Network,
    SimClock,
    TransferEngine,
    format_duration,
    transfer_seconds,
)
from repro.operations import (
    OperationCache,
    OperationEngine,
    OperationStats,
    pack_code_archive,
)
from repro.sqldb import Blob, Clob, Database
from repro.turbulence import TurbulenceArchive, build_turbulence_archive
from repro.web import EasiaApp, UserManager
from repro.xuis import (
    Customizer,
    XuisDocument,
    generate_default_xuis,
    parse_xuis,
    serialize_xuis,
    validate_xuis,
)

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Blob",
    "Clob",
    "DataLinker",
    "DatalinkSpec",
    "DatalinkValue",
    "TokenManager",
    "coordinated_backup",
    "coordinated_restore",
    "FileServer",
    "ServerFileSystem",
    "Network",
    "Host",
    "Link",
    "SimClock",
    "BandwidthProfile",
    "TransferEngine",
    "transfer_seconds",
    "format_duration",
    "MBYTE",
    "OperationEngine",
    "OperationCache",
    "OperationStats",
    "pack_code_archive",
    "generate_default_xuis",
    "serialize_xuis",
    "parse_xuis",
    "validate_xuis",
    "Customizer",
    "XuisDocument",
    "EasiaApp",
    "UserManager",
    "TurbulenceArchive",
    "build_turbulence_archive",
    "__version__",
]
