"""Coordinated backup and recovery of database + linked files.

Paper: "the database management system can take responsibility for backup
and recovery of external files in synchronisation with the internal data".

:func:`coordinated_backup` writes one self-contained backup image:

* the database's :meth:`~repro.sqldb.database.Database.image` — the same
  schema script and rows, read at one snapshot, that a checkpoint stores,
* a copy of every linked file flagged ``RECOVERY YES``, organised by host,
  with its sha256 recorded in the manifest.

:func:`coordinated_restore` rebuilds a database *and* repopulates fresh
file servers from the image, re-establishing the links — the database and
its external files come back as one consistent unit.  Every restored
file is verified against its manifest checksum; a missing or corrupted
image file raises :class:`~repro.errors.RecoveryError` naming the file
instead of silently restoring damaged data.

Replica sets are transparent here: when a logical host is backed by a
:class:`~repro.replication.replicaset.ReplicaSet`, the backup reads each
file from *any healthy replica* (``healthy_entry``), so a down primary
does not abort the backup.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.errors import RecoveryError
from repro.datalink.linker import DataLinker
from repro.datalink.tokens import TokenManager
from repro.fileserver.server import FileServer
from repro.sqldb.database import Database

__all__ = ["coordinated_backup", "coordinated_restore"]

_MANIFEST = "backup_manifest.json"


def _backup_entry(server, path: str):
    """The file entry to back up — from any healthy replica when the
    server is a replica set, from the one filesystem otherwise."""
    healthy = getattr(server, "healthy_entry", None)
    if healthy is not None:
        return healthy(path)
    return server.filesystem.entry(path)


def coordinated_backup(db: Database, linker: DataLinker, directory: str) -> dict:
    """Write a consistent backup image of ``db`` plus its linked files.

    The database part is :meth:`Database.image`: every table read at one
    pinned snapshot, so it holds the committed rows of one moment without
    any open transaction's.  Returns the manifest (also persisted as
    ``backup_manifest.json``).
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "database.json"), "w", encoding="utf-8") as fh:
        json.dump(db.image(), fh)

    files: list[dict] = []
    for host, path in linker.recovery_manifest():
        server = linker.server(host)
        entry = _backup_entry(server, path)
        data = entry.data
        rel = os.path.join("files", host, path.lstrip("/"))
        target = os.path.join(directory, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "wb") as fh:
            fh.write(data)
        files.append(
            {
                "host": host,
                "path": path,
                "stored_as": rel,
                "size": len(data),
                "sha256": entry.sha256,
                "read_db": entry.read_db,
                "write_blocked": entry.write_blocked,
            }
        )
    manifest = {"files": files, "byte_total": sum(f["size"] for f in files)}
    with open(os.path.join(directory, _MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def _read_verified(directory: str, info: dict) -> bytes:
    """Read one backed-up file, verifying existence and checksum.

    Backup images written before checksums were recorded (no ``sha256``
    key) restore without verification.
    """
    stored = os.path.join(directory, info["stored_as"])
    if not os.path.exists(stored):
        raise RecoveryError(
            f"backup image is missing {info['stored_as']} "
            f"(linked file {info['host']}{info['path']})"
        )
    with open(stored, "rb") as fh:
        data = fh.read()
    expected = info.get("sha256")
    if expected is not None:
        actual = hashlib.sha256(data).hexdigest()
        if actual != expected:
            raise RecoveryError(
                f"backup image {info['stored_as']} is corrupted: "
                f"sha256 {actual[:12]} != recorded {expected[:12]} "
                f"(linked file {info['host']}{info['path']})"
            )
    return data


def coordinated_restore(
    directory: str,
    token_manager: TokenManager | None = None,
) -> tuple[Database, DataLinker]:
    """Rebuild a database and its file servers from a backup image.

    The returned database has the linker installed as its datalink hooks;
    every backed-up file is checksum-verified, restored onto a fresh
    :class:`FileServer` for its original host and re-linked with its
    original protection flags.
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    db_path = os.path.join(directory, "database.json")
    if not (os.path.exists(manifest_path) and os.path.exists(db_path)):
        raise RecoveryError(f"{directory} does not contain a backup image")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(db_path, encoding="utf-8") as fh:
        image = json.load(fh)

    linker = DataLinker(token_manager)
    # Restore files first so that re-linking finds them; each file is
    # verified before its bytes reach a server, so a corrupted image
    # aborts the restore instead of planting damaged data.
    for info in manifest["files"]:
        host = info["host"]
        if not linker.has_server(host):
            linker.register_server(FileServer(host))
        server = linker.server(host)
        server.put(info["path"], _read_verified(directory, info))

    db = Database()
    db.load_image(image)

    # Re-establish link control exactly as it was.
    for info in manifest["files"]:
        linker.server(info["host"]).dl_link(
            info["path"],
            read_db=info["read_db"],
            write_blocked=info["write_blocked"],
            recovery=True,
        )
    db.set_datalink_hooks(linker)
    return db, linker
