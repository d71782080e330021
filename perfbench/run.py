#!/usr/bin/env python3
"""EASIA portal benchmark.

Runs one workload against the real portal — ``EasiaApp`` behind its
``WsgiAdapter``, in process, with a ``ConnectionPool`` installed the way
``repro serve`` installs one — from one or two closed-loop client threads
with no think time, and checks every output.

    python3 perfbench/run.py --workload portal_browse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs untraced, traced, untraced again and reports the per-layer
metrics of the traced middle half plus the tracing overhead.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.  Workload names, the metric definitions and the
layer → end-to-end predictions are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("portal_browse", "analysis", "ingest")

#: deployments are built at least SETUPS times and until SETUP_S seconds
#: went into building; setup_s is the median build time
SETUPS = 5
SETUP_S = 4.0
#: unmeasured closed-loop time before measuring (caches fill, lazy set-up)
WARMUP_S = 2.0
#: a p99 needs this many samples beyond it, hence 1,000 samples a class
MIN_BEYOND = 10
#: measuring may stretch to this multiple of --seconds to reach that count
MAX_STRETCH = 2.0


class Phase:
    """What the clients did during one closed-loop interval."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.elapsed = 0.0

    def add(self, other: "Phase") -> None:
        for cls, values in other.latencies.items():
            self.latencies.setdefault(cls, []).extend(values)
        self.attempted += other.attempted
        self.failures.extend(other.failures)
        self.elapsed += other.elapsed

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.elapsed if self.elapsed else 0.0


def run_phase(sessions, recorder, seconds: float, monitor=None) -> Phase:
    """One thread per session, each clicking until the deadline; the main
    thread calls ``monitor()`` every 50 ms meanwhile."""
    results = [[] for _ in sessions]
    deadline = perf_counter() + seconds

    def loop(session, out) -> None:
        while perf_counter() < deadline:
            try:
                out.append(session.step(recorder))
            except Exception as exc:  # counted as a failed operation
                out.append([("error", None, f"{type(exc).__name__}: {exc}")])

    threads = [
        threading.Thread(target=loop, args=(s, out), name=f"client-{i}")
        for i, (s, out) in enumerate(zip(sessions, results))
    ]
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        while thread.is_alive():
            if monitor is not None:
                monitor()
            thread.join(0.05)
    phase = Phase()
    phase.elapsed = perf_counter() - started
    for out in results:
        for samples in out:
            phase.attempted += 1
            for cls, latency, failure in samples:
                if failure is not None:
                    phase.failures.append(f"{cls}: {failure}")
                else:
                    phase.latencies.setdefault(cls, []).append(latency)
    return phase


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build(workload_cls, seed: int, work_dir: str):
    """Set the deployment up repeatedly (see SETUPS); keep the last build,
    return it with the median set-up time and the number of builds."""
    times = []
    workload = None
    while len(times) < SETUPS or sum(times) < SETUP_S:
        if workload is not None:
            workload.teardown()
        workload = None  # the previous deployment is garbage from here
        gc.collect()
        workload = workload_cls(seed, os.path.join(work_dir, f"setup{len(times)}"))
        started = perf_counter()
        workload.setup()
        times.append(perf_counter() - started)
    return workload, statistics.median(times), len(times)


def run_untraced(workload, sessions, recorder, seconds: float, setup_s: float,
                 lines: list[str]) -> tuple[Phase, dict]:
    from stats import InsufficientSamples, percentile

    phase = run_phase(sessions, recorder, seconds)
    main, aux = workload.classes
    need = 100 * MIN_BEYOND
    while (min(len(phase.latencies.get(c, ())) for c in (main, aux)) < need
           and phase.elapsed < MAX_STRETCH * seconds):
        phase.add(run_phase(sessions, recorder, 1.0))

    counts = {c: len(v) for c, v in phase.latencies.items()}
    stats = {}
    for cls in (main, aux):
        values = phase.latencies.get(cls, [])
        try:
            stats[cls] = (1e3 * percentile(values, 50, MIN_BEYOND),
                          1e3 * percentile(values, 99, MIN_BEYOND))
        except InsufficientSamples as exc:
            raise SystemExit(f"perfbench: class {cls!r}: {exc}") from None
        lines.append(f"{cls}_p50_ms {stats[cls][0]:.4f} ms (n={counts[cls]})")
        lines.append(f"{cls}_p99_ms {stats[cls][1]:.4f} ms (n={counts[cls]})")
        lines.append(f"{cls}_per_s {counts[cls] / phase.elapsed:.3f} 1/s "
                     f"(n={counts[cls]})")
    if set(workload.page_classes) == {main, aux}:
        pages = phase.latencies[main] + phase.latencies[aux]
        lines.append(f"page_p50_ms {1e3 * percentile(pages, 50):.4f} ms (n={len(pages)})")
        lines.append(f"page_p99_ms {1e3 * percentile(pages, 99):.4f} ms (n={len(pages)})")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "main_per_s": (counts[main] / phase.elapsed, "1/s"),
        "main_p50_ms": (stats[main][0], "ms"),
        "main_p99_ms": (stats[main][1], "ms"),
        "aux_p50_ms": (stats[aux][0], "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return phase, metrics


def run_traced(workload, sessions, recorder, seconds: float,
               lines: list[str]) -> tuple[Phase, dict]:
    from layers import PER_LAYER, per_layer_metrics
    from spans import Tracer, instrument

    phase = run_phase(sessions, recorder, seconds / 4)
    tracer = Tracer()
    before = workload.counters()
    lags = [0]
    instrument(tracer)
    for conn in workload.connections:
        tracer.watch(conn)
    recorder.tracer = tracer
    try:
        traced = run_phase(sessions, recorder, seconds / 2,
                           monitor=lambda: lags.append(workload.max_lag()))
    finally:
        recorder.tracer = None
        tracer.uninstall()
    after = workload.counters()
    phase.add(run_phase(sessions, recorder, seconds / 4))
    counters = {k: after[k] - before[k] for k in before}
    counters["rows_scanned"] = tracer.rows_scanned
    overhead = traced.ops_per_s / phase.ops_per_s if phase.ops_per_s else 0.0
    values = per_layer_metrics(tracer, counters, workload.page_classes,
                               max(lags), overhead)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload.name}.csv"))
    lines.append(f"traced {traced.attempted} operations, {len(tracer.spans)} "
                 f"spans; untraced {phase.ops_per_s:.2f} ops/s, traced "
                 f"{traced.ops_per_s:.2f} ops/s")
    phase.add(traced)
    metrics = {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
    return phase, metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS, Recorder

    work_dir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    workload = None
    try:
        workload, setup_s, builds = _build(WORKLOADS[name], seed, work_dir)
        recorder = Recorder()
        sessions = workload.sessions()
        total = run_phase(sessions, recorder, WARMUP_S)
        lines = [f"workload {name} seed {seed} seconds {seconds:g} "
                 f"trace {int(trace)}"]
        if name == "ingest":
            lines.append("flush policy: Database(directory, sync=True), "
                         "fsync per commit")
        if trace:
            phase, metrics = run_traced(workload, sessions, recorder, seconds, lines)
        else:
            phase, metrics = run_untraced(
                workload, sessions, recorder, seconds, setup_s, lines
            )
        total.add(phase)
        failures = total.failures + workload.final_checks()
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(failures)
    lines.append(f"setup_s {setup_s:.4f} s (n={builds})")
    lines.append(f"ops_per_s {phase.ops_per_s:.3f} 1/s (n={phase.attempted})")
    lines.append(f"failed_ratio {failed / max(1, total.attempted):.6f} ratio "
                 f"(n={total.attempted})")
    for metric, (value, unit) in metrics.items():
        lines.append(f"{metric} {value:.6g} {unit}")
    for failure in failures[:20]:
        lines.append(f"FAILED {failure}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": total.attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--trace", str(args.trace)]
                           ).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    sys.path[:0] = [SRC, HERE]
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
