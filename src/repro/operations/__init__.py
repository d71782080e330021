"""Server-side post-processing operations.

The value-add layer that makes the archive *active*: reusable codes,
themselves archived as DATALINKs, are loosely coupled to datasets through
XUIS markup and executed next to the data — only the (small) results
cross the network.

* :class:`OperationEngine` — resolve / fetch / unpack / execute / collect,
  for XUIS operations and for user code uploads (under the strict
  sandbox policy) alike,
* :class:`Sandbox` / :class:`SandboxPolicy` — confinement,
* :class:`BatchScript` / :func:`pack_code_archive` — the batch-file
  mechanism and archive packaging,
* :class:`OperationCache` / :class:`OperationStats` — the paper's
  future-work features (result caching, statistics for future users),
* :func:`scientific_data_browser` — the NCSA-SDB-style URL service.
"""

from repro.operations.archive_back import ResultArchiver
from repro.operations.batch import BatchScript, pack_code_archive, unpack_archive
from repro.operations.cache import OperationCache
from repro.operations.executor import OperationEngine, OperationResult, output_mime
from repro.operations.sandbox import Sandbox, SandboxPolicy, SandboxResult
from repro.operations.stats import OperationStats
from repro.operations.urlops import identity_service, scientific_data_browser

__all__ = [
    "OperationEngine",
    "OperationResult",
    "output_mime",
    "ResultArchiver",
    "Sandbox",
    "SandboxPolicy",
    "SandboxResult",
    "BatchScript",
    "pack_code_archive",
    "unpack_archive",
    "OperationCache",
    "OperationStats",
    "scientific_data_browser",
    "identity_service",
]
