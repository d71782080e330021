"""Paper-vs-measured reporting for the benchmark harness.

Benchmarks run under pytest's output capture; the default :class:`Emitter`
writes straight to the real stdout so the regenerated tables appear in the
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` transcript.

Emission is injectable: :func:`set_emitter` installs a replacement (tests
inject collectors), and every emitted line is mirrored into the
observability event layer as a ``bench.emit`` event when a live
:mod:`repro.obs` default is installed — so a benchmark run's tables are
queryable alongside its metrics and traces.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Sequence

from repro.obs import get_observability

__all__ = ["emit", "set_emitter", "get_emitter", "Emitter", "PaperTable"]


def _default_writer(text: str) -> None:
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()


class Emitter:
    """Writes benchmark lines and mirrors them into the obs event log."""

    def __init__(self, writer: Callable[[str], None] | None = None) -> None:
        self.writer = writer or _default_writer

    def emit(self, text: str = "") -> None:
        obs = get_observability()
        if obs.enabled:
            obs.events.emit("bench.emit", text=text)
        self.writer(text)


_emitter = Emitter()


def get_emitter() -> Emitter:
    return _emitter


def set_emitter(emitter: Emitter) -> Emitter:
    """Install the emitter used by :func:`emit`; returns the previous one."""
    global _emitter
    previous = _emitter
    _emitter = emitter
    return previous


def emit(text: str = "") -> None:
    """Print through the configured emitter (un-captured stdout by default)."""
    _emitter.emit(text)


class PaperTable:
    """An aligned text table announcing which paper artefact it regenerates.

    >>> table = PaperTable("T1", "ftp bandwidth measurements",
    ...                    ["Time", "Rate"])   # doctest: +SKIP
    """

    def __init__(self, experiment_id: str, title: str, headers: Sequence[str]) -> None:
        self.experiment_id = experiment_id
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells for {len(self.headers)} headers"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

        rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
        out = [
            "",
            f"=== [{self.experiment_id}] {self.title} ===",
            line(self.headers),
            rule,
        ]
        out.extend(line(row) for row in self.rows)
        return "\n".join(out)

    def show(self) -> None:
        emit(self.render())
