"""Archiving operation outputs back into the archive.

The turbulence schema's VISUALISATION_FILE table exists precisely for
this: a slice image or spectrum produced by a server-side operation is
itself a scientific artefact worth keeping.  :class:`ResultArchiver`
closes the loop — the output file is written onto the *same file server*
that holds the source dataset (it never crosses the network), linked
under DATALINK control, and registered in the database within one
transaction.
"""

from __future__ import annotations

from typing import Any

from repro.datalink.linker import DataLinker
from repro.errors import OperationError
from repro.operations.executor import OperationResult, output_mime
from repro.sqldb.database import Database
from repro.sqldb.types import Blob, DatalinkValue

__all__ = ["ResultArchiver"]

#: outputs up to this size also get an in-database BLOB preview
_PREVIEW_LIMIT = 64 * 1024


class ResultArchiver:
    """Persists operation outputs as first-class archive entries."""

    def __init__(self, db: Database, linker: DataLinker,
                 table: str = "VISUALISATION_FILE") -> None:
        self.db = db
        self.linker = linker
        self.table = table.upper()

    def archive(
        self,
        result: OperationResult,
        dataset: DatalinkValue,
        simulation_key: str,
        output_name: str | None = None,
        vis_name: str | None = None,
    ) -> DatalinkValue:
        """Store one output of ``result`` next to its source ``dataset``.

        Returns the new DATALINK value registered in the database.  The
        whole step is transactional: if the row insert fails (e.g.
        duplicate name), the file link is discarded with it.
        """
        if output_name is None:
            output_name, data = result.primary_output()
        else:
            data = result.outputs.get(output_name)
            if data is None:
                raise OperationError(
                    f"operation produced no output named {output_name!r}"
                )
        if vis_name is None:
            stem, _, suffix = output_name.rpartition(".")
            base = stem or output_name
            vis_name = (
                f"{base}_{result.operation.name}_{simulation_key}"
                + (f".{suffix}" if suffix else "")
            )

        server = self.linker.server(dataset.host)
        directory = dataset.directory.rstrip("/")
        path = f"{directory}/vis/{vis_name}"
        server.put(path, data)

        suffix = "." + output_name.rsplit(".", 1)[-1] if "." in output_name else ""
        preview = None
        if len(data) <= _PREVIEW_LIMIT:
            preview = Blob(data, output_mime(output_name))

        url = f"{dataset.scheme}://{dataset.host}{path}"
        try:
            self.db.execute(
                f"INSERT INTO {self.table} VALUES (?, ?, ?, ?, ?)",
                (
                    vis_name,
                    simulation_key,
                    suffix.lstrip(".").upper() or "BIN",
                    preview,
                    url,
                ),
            )
        except Exception:
            # the transactional hooks discard the pending link; also drop
            # the staged file so the server is not littered
            if server.filesystem.exists(path) and not (
                server.filesystem.entry(path).linked
            ):
                server.filesystem.delete(path)
            raise
        return DatalinkValue(url)

    def archive_all(
        self,
        result: OperationResult,
        dataset: DatalinkValue,
        simulation_key: str,
    ) -> list[DatalinkValue]:
        """Archive every output file of ``result``."""
        return [
            self.archive(result, dataset, simulation_key, output_name=name)
            for name in sorted(result.outputs)
        ]
